// Sensitivity sweeps: how a workload's behaviour changes as one
// architectural parameter varies. The paper motivates APRES with exactly
// these sensitivities (Section III.A sweeps the L1 from 32 KB to 32 MB;
// Section III.B argues from working-set-to-cache ratios), so the harness
// exposes them as first-class experiments.
package harness

import (
	"context"
	"fmt"

	"apres/internal/config"
	"apres/internal/gpu"
)

// SweepPoint is one configuration point of a sensitivity sweep.
type SweepPoint struct {
	// Label names the point (e.g. "64KB").
	Label string
	// Value is the swept parameter's numeric value.
	Value int
	// Speedup is execution time relative to the sweep's first point.
	Speedup float64
	// L1HitRate and AvgMemLatency capture why the speedup moved.
	L1HitRate     float64
	AvgMemLatency float64
}

// Sweep is a completed sensitivity sweep.
type Sweep struct {
	Title  string
	App    string
	Config string
	Points []SweepPoint
}

// Render formats the sweep as aligned text.
func (s *Sweep) Render() string {
	out := fmt.Sprintf("%s (%s under %s)\n", s.Title, s.App, s.Config)
	out += fmt.Sprintf("%-10s %9s %8s %9s\n", "point", "speedup", "L1 hit", "mem lat")
	for _, p := range s.Points {
		out += fmt.Sprintf("%-10s %8.3fx %7.1f%% %9.1f\n",
			p.Label, p.Speedup, p.L1HitRate*100, p.AvgMemLatency)
	}
	return out
}

// sweep runs the workload across the given parameter points.
func (r *Runner) sweep(title, app, cfgName string, points []int, label func(int) string, apply func(*config.Config, int)) (*Sweep, error) {
	base, err := NamedConfig(cfgName)
	if err != nil {
		return nil, err
	}
	// All points are independent: run them concurrently across the worker
	// pool and collect in parameter order. Speedups normalise to the first
	// point, so they are computed after collection.
	results, err := mapConcurrent(r.workers(), points, func(_ int, v int) (gpu.Result, error) {
		cfg := base
		apply(&cfg, v)
		if err := cfg.Validate(); err != nil {
			return gpu.Result{}, fmt.Errorf("harness: sweep point %d: %w", v, err)
		}
		return result(r.Do(context.Background(), Request{Workload: app, Inline: cfg}))
	})
	if err != nil {
		return nil, err
	}
	out := &Sweep{Title: title, App: app, Config: cfgName}
	first := results[0]
	for i, v := range points {
		res := results[i]
		out.Points = append(out.Points, SweepPoint{
			Label:         label(v),
			Value:         v,
			Speedup:       float64(first.Cycles) / float64(res.Cycles),
			L1HitRate:     res.Total.L1HitRate(),
			AvgMemLatency: res.Total.AvgMemLatency(),
		})
	}
	return out, nil
}

// SweepL1Size varies the L1 capacity (in KiB) — the Figure 2 axis.
func (r *Runner) SweepL1Size(app, cfgName string, sizesKB []int) (*Sweep, error) {
	return r.sweep("L1 size sensitivity", app, cfgName, sizesKB,
		func(v int) string { return fmt.Sprintf("%dKB", v) },
		func(c *config.Config, v int) { c.L1SizeBytes = v * 1024 })
}

// SweepMSHRs varies the L1 MSHR count — the memory-level-parallelism knob
// that bounds how much latency 48 warps can overlap.
func (r *Runner) SweepMSHRs(app, cfgName string, counts []int) (*Sweep, error) {
	return r.sweep("L1 MSHR sensitivity", app, cfgName, counts,
		func(v int) string { return fmt.Sprintf("%d", v) },
		func(c *config.Config, v int) { c.L1MSHRs = v })
}

// SweepWarps varies the concurrent warps per SM — static throttling, the
// crude version of what CCWS does dynamically.
func (r *Runner) SweepWarps(app, cfgName string, warps []int) (*Sweep, error) {
	return r.sweep("active warp sensitivity", app, cfgName, warps,
		func(v int) string { return fmt.Sprintf("%dw", v) },
		func(c *config.Config, v int) { c.WarpsPerSM = v })
}

// SweepDRAMBandwidth varies the per-partition service interval (smaller =
// more bandwidth) — the queueing-delay knob of Section III.
func (r *Runner) SweepDRAMBandwidth(app, cfgName string, intervals []int) (*Sweep, error) {
	return r.sweep("DRAM bandwidth sensitivity", app, cfgName, intervals,
		func(v int) string { return fmt.Sprintf("1/%dcyc", v) },
		func(c *config.Config, v int) { c.DRAMServiceInterval = v })
}
