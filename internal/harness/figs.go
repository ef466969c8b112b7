// Implementations of Figures 2-4 and 10-15.
package harness

import (
	"fmt"

	"apres/internal/energy"
	"apres/internal/gpu"
)

// speedup returns base-cycles over cfg-cycles for one app.
func (r *Runner) speedup(app, cfgName string) (float64, error) {
	base, err := r.Run(app, "base")
	if err != nil {
		return 0, err
	}
	other, err := r.Run(app, cfgName)
	if err != nil {
		return 0, err
	}
	if other.Cycles == 0 {
		return 0, fmt.Errorf("harness: %s/%s ran zero cycles", app, cfgName)
	}
	return float64(base.Cycles) / float64(other.Cycles), nil
}

func (r *Runner) seriesOf(name string, apps []string, f func(app string) (float64, error)) (Series, error) {
	vals, err := mapConcurrent(r.workers(), apps, func(_ int, a string) (float64, error) {
		return f(a)
	})
	if err != nil {
		return Series{}, err
	}
	s := Series{Name: name, Values: make(map[string]float64, len(apps))}
	for i, a := range apps {
		s.Values[a] = vals[i]
	}
	return s, nil
}

// seriesSpec is one submitted series of a figure: a label plus the per-app
// metric to evaluate.
type seriesSpec struct {
	name string
	f    func(app string) (float64, error)
}

// chart evaluates every (series, app) cell of a figure concurrently across
// the Runner's worker pool and collects the series in submission order, so
// the rendered output is identical to the old sequential loops.
func (r *Runner) chart(title string, apps []string, specs []seriesSpec) (*Chart, error) {
	series, err := mapConcurrent(r.workers(), specs, func(_ int, sp seriesSpec) (Series, error) {
		return r.seriesOf(sp.name, apps, sp.f)
	})
	if err != nil {
		return nil, err
	}
	return &Chart{Title: title, Apps: apps, Series: series}, nil
}

// metricOf returns the per-app evaluation of one metric of the run under
// cfgName.
func (r *Runner) metricOf(cfgName string, metric func(*gpu.Result) float64) func(app string) (float64, error) {
	return func(a string) (float64, error) {
		res, err := r.Run(a, cfgName)
		return metric(&res), err
	}
}

func coldMissRate(res *gpu.Result) float64       { return res.Total.ColdMissRate() }
func capConfMissRate(res *gpu.Result) float64    { return res.Total.CapConfMissRate() }
func earlyEvictionRatio(res *gpu.Result) float64 { return res.Total.EarlyEvictionRatio() }

// speedups charts the speedup over the baseline, a series per configuration.
func (r *Runner) speedups(title string, apps, cfgs []string) (*Chart, error) {
	var specs []seriesSpec
	for _, cfg := range cfgs {
		cfg := cfg
		specs = append(specs, seriesSpec{cfg, func(a string) (float64, error) { return r.speedup(a, cfg) }})
	}
	return r.chart(title, apps, specs)
}

// Fig2 reproduces Figure 2: the L1 miss-rate breakdown into cold vs
// capacity+conflict misses for the 32 KB baseline (B) and the hypothetical
// 32 MB L1 (C), plus the speedup of C over B.
func (r *Runner) Fig2(apps []string) (*Chart, error) {
	specs := []seriesSpec{
		{"B cold", r.metricOf("base", coldMissRate)},
		{"B cap+conf", r.metricOf("base", capConfMissRate)},
		{"C cold", r.metricOf("l1-32mb", coldMissRate)},
		{"C cap+conf", r.metricOf("l1-32mb", capConfMissRate)},
		{"C speedup", func(a string) (float64, error) { return r.speedup(a, "l1-32mb") }},
	}
	return r.chart("Figure 2: L1 miss breakdown, 32KB baseline (B) vs 32MB (C)", apps, specs)
}

// Fig3Combos lists the scheduler x prefetcher combinations of Figure 3.
var Fig3Combos = []string{
	"pa+str", "pa+sld", "gto+str", "gto+sld",
	"mascar+str", "mascar+sld", "ccws+str", "ccws+sld",
}

// Fig3 reproduces Figure 3: speedup of existing warp schedulers combined
// with the STR and SLD prefetchers, normalised to the LRR baseline.
func (r *Runner) Fig3(apps []string) (*Chart, error) {
	return r.speedups("Figure 3: scheduling x prefetching speedup over baseline", apps, Fig3Combos)
}

// perConfig charts one metric of a run, a series per configuration. With
// normalise set, each value is divided by the same metric of the app's
// baseline run (0 when that is 0).
func (r *Runner) perConfig(title string, apps, cfgs []string, normalise bool, metric func(*gpu.Result) float64) (*Chart, error) {
	var specs []seriesSpec
	for _, cfg := range cfgs {
		cfg := cfg
		specs = append(specs, seriesSpec{cfg, func(a string) (float64, error) {
			res, err := r.Run(a, cfg)
			if err != nil || !normalise {
				return metric(&res), err
			}
			base, err := r.Run(a, "base")
			if err != nil || metric(&base) == 0 {
				return 0, err
			}
			return metric(&res) / metric(&base), nil
		}})
	}
	return r.chart(title, apps, specs)
}

// versusCCWSSTR lists the two configurations Figures 12-15 compare.
var versusCCWSSTR = []string{"ccws+str", "apres"}

// Fig4 reproduces Figure 4: the early-eviction ratio of the STR prefetcher
// under the four existing schedulers.
func (r *Runner) Fig4(apps []string) (*Chart, error) {
	return r.perConfig("Figure 4: early eviction ratio of STR prefetching", apps,
		[]string{"pa+str", "gto+str", "mascar+str", "ccws+str"}, false, earlyEvictionRatio)
}

// Fig10Configs lists the five techniques Figure 10 compares.
var Fig10Configs = []string{"ccws", "laws", "ccws+str", "laws+str", "apres"}

// Fig10 reproduces Figure 10: IPC of CCWS, LAWS, CCWS+STR, LAWS+STR and
// APRES normalised to the baseline.
func (r *Runner) Fig10(apps []string) (*Chart, error) {
	return r.speedups("Figure 10: speedup over baseline", apps, Fig10Configs)
}

// Fig11Configs maps Figure 11's column letters to configurations
// (B: baseline, C: CCWS, L: LAWS, S: CCWS+STR, A: APRES).
var Fig11Configs = []struct{ Letter, Config string }{
	{"B", "base"}, {"C", "ccws"}, {"L", "laws"}, {"S", "ccws+str"}, {"A", "apres"},
}

// Fig11 reproduces Figure 11: the L1 access breakdown into hit-after-hit,
// hit-after-miss, cold miss, and capacity+conflict miss fractions under the
// five configurations.
func (r *Runner) Fig11(apps []string) (*Chart, error) {
	comps := []struct {
		name string
		f    func(*gpu.Result) float64
	}{
		{"hitH", func(res *gpu.Result) float64 { return frac(res.Total.L1HitAfterHit, res.Total.L1Accesses) }},
		{"hitM", func(res *gpu.Result) float64 { return frac(res.Total.L1HitAfterMiss, res.Total.L1Accesses) }},
		{"cold", coldMissRate},
		{"cap+c", capConfMissRate},
	}
	var specs []seriesSpec
	for _, fc := range Fig11Configs {
		for _, cm := range comps {
			specs = append(specs, seriesSpec{fc.Letter + " " + cm.name, r.metricOf(fc.Config, cm.f)})
		}
	}
	return r.chart("Figure 11: cache hit and miss breakdown (fractions of L1 accesses)", apps, specs)
}

func frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Fig12 reproduces Figure 12: early eviction ratio of CCWS+STR vs APRES.
func (r *Runner) Fig12(apps []string) (*Chart, error) {
	return r.perConfig("Figure 12: early eviction ratio, CCWS+STR vs APRES", apps, versusCCWSSTR, false, earlyEvictionRatio)
}

// Fig13 reproduces Figure 13: average memory latency of CCWS+STR and APRES
// normalised to the baseline.
func (r *Runner) Fig13(apps []string) (*Chart, error) {
	return r.perConfig("Figure 13: average memory latency normalised to baseline", apps, versusCCWSSTR, true,
		func(res *gpu.Result) float64 { return res.Total.AvgMemLatency() })
}

// Fig14 reproduces Figure 14: memory-to-SM data traffic of CCWS+STR and
// APRES normalised to the baseline.
func (r *Runner) Fig14(apps []string) (*Chart, error) {
	return r.perConfig("Figure 14: data traffic normalised to baseline", apps, versusCCWSSTR, true,
		func(res *gpu.Result) float64 { return float64(res.Total.BytesToSM) })
}

// Fig15 reproduces Figure 15: dynamic energy of CCWS+STR and APRES
// normalised to the baseline, under the event-energy model.
func (r *Runner) Fig15(apps []string) (*Chart, error) {
	model := energy.Default()
	return r.perConfig("Figure 15: dynamic energy normalised to baseline", apps, versusCCWSSTR, true,
		func(res *gpu.Result) float64 { return model.Estimate(&res.Total).Dynamic() })
}
