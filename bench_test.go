package apres_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// APRES paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md. Each benchmark regenerates its experiment and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Workloads run at a reduced scale
// (benchScale) to keep the suite's wall time reasonable; cmd/experiments
// runs the same experiments at full scale.

import (
	"context"
	"testing"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/kernel"
	"apres/internal/workloads"
)

const (
	benchScale = 0.25
	benchSMs   = 0 // 0 = the paper's 15 SMs
)

// sharedRunner memoises runs across benchmarks within one bench process.
var sharedRunner = harness.NewRunner(benchScale, benchSMs)

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sharedRunner.TableI(harness.MemoryIntensiveApps())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		total = harness.TableII(config.APRES()).Total()
	}
	b.ReportMetric(float64(total), "bytes")
	if total != 724 {
		b.Fatalf("hardware cost = %d B, want the paper's 724", total)
	}
}

func BenchmarkFig2(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig2(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		s, _ := c.SeriesByName("C speedup")
		speedup = s.Mean(c.Apps)
	}
	b.ReportMetric(speedup, "32MB-speedup")
}

func BenchmarkFig3(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig3(harness.MemoryIntensiveApps())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range c.Series {
			if m := s.Mean(c.Apps); m > best {
				best = m
			}
		}
	}
	b.ReportMetric(best, "best-combo-speedup")
}

func BenchmarkFig4(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig4(harness.MemoryIntensiveApps())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range c.Series {
			if m := s.Mean(c.Apps); m > worst {
				worst = m
			}
		}
	}
	b.ReportMetric(worst, "early-eviction-ratio")
}

func BenchmarkFig10(b *testing.B) {
	var apres, laws float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig10(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := c.SeriesByName("apres"); ok {
			apres = s.Mean(c.Apps)
		}
		if s, ok := c.SeriesByName("laws"); ok {
			laws = s.Mean(c.Apps)
		}
	}
	b.ReportMetric(apres, "apres-speedup")
	b.ReportMetric(laws, "laws-speedup")
}

func BenchmarkFig11(b *testing.B) {
	var hitAfterHit float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig11(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := c.SeriesByName("A hitH"); ok {
			hitAfterHit = s.Mean(c.Apps)
		}
	}
	b.ReportMetric(hitAfterHit, "apres-hit-after-hit")
}

func BenchmarkFig12(b *testing.B) {
	var apres, ccwsStr float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig12(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := c.SeriesByName("apres"); ok {
			apres = s.Mean(c.Apps)
		}
		if s, ok := c.SeriesByName("ccws+str"); ok {
			ccwsStr = s.Mean(c.Apps)
		}
	}
	b.ReportMetric(apres, "apres-early-evict")
	b.ReportMetric(ccwsStr, "ccws+str-early-evict")
}

func BenchmarkFig13(b *testing.B) {
	var apres float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig13(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := c.SeriesByName("apres"); ok {
			apres = s.Mean(c.Apps)
		}
	}
	b.ReportMetric(apres, "apres-mem-latency")
}

func BenchmarkFig14(b *testing.B) {
	var apres float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig14(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := c.SeriesByName("apres"); ok {
			apres = s.Mean(c.Apps)
		}
	}
	b.ReportMetric(apres, "apres-traffic")
}

func BenchmarkFig15(b *testing.B) {
	var apres float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig15(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := c.SeriesByName("apres"); ok {
			apres = s.Mean(c.Apps)
		}
	}
	b.ReportMetric(apres, "apres-energy")
}

// ablationApps is a small representative set (one per category) so the
// ablation benches stay quick.
var ablationApps = []string{"BFS", "SRAD", "SP"}

// benchAblation measures APRES's mean speedup over the baseline on
// ablationApps with one APRES structure changed. The changed configuration
// runs as an inline cell, memoised and stored under its own digest.
func benchAblation(b *testing.B, change func(*config.Config)) float64 {
	b.Helper()
	cfg := config.APRES()
	change(&cfg)
	var mean float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, app := range ablationApps {
			base, err := sharedRunner.Run(app, "base")
			if err != nil {
				b.Fatal(err)
			}
			out, err := sharedRunner.Do(context.Background(), harness.Request{Workload: app, Inline: cfg})
			if err != nil {
				b.Fatal(err)
			}
			sum += float64(base.Cycles) / float64(out.Result.Cycles)
		}
		mean = sum / float64(len(ablationApps))
	}
	return mean
}

func BenchmarkAblationWGTDepth(b *testing.B) {
	for _, depth := range []int{1, 3, 8} {
		depth := depth
		b.Run(map[int]string{1: "wgt1", 3: "wgt3-paper", 8: "wgt8"}[depth], func(b *testing.B) {
			m := benchAblation(b, func(c *config.Config) { c.LAWSWGTEntries = depth })
			b.ReportMetric(m, "apres-speedup")
		})
	}
}

func BenchmarkAblationPTSize(b *testing.B) {
	for _, size := range []int{2, 10, 32} {
		size := size
		b.Run(map[int]string{2: "pt2", 10: "pt10-paper", 32: "pt32"}[size], func(b *testing.B) {
			m := benchAblation(b, func(c *config.Config) { c.SAPPTEntries = size })
			b.ReportMetric(m, "apres-speedup")
		})
	}
}

func BenchmarkAblationTailDemotion(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "off"
		if on {
			name = "on-paper"
		}
		b.Run(name, func(b *testing.B) {
			m := benchAblation(b, func(c *config.Config) { c.LAWSTailDemotion = on })
			b.ReportMetric(m, "apres-speedup")
		})
	}
}

func BenchmarkAblationStrideGate(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "off"
		if on {
			name = "on-paper"
		}
		b.Run(name, func(b *testing.B) {
			m := benchAblation(b, func(c *config.Config) { c.SAPStrideGate = on })
			b.ReportMetric(m, "apres-speedup")
		})
	}
}

// BenchmarkAblationCoupling contrasts APRES (coupled) against LAWS+STR
// (uncoupled scheduling + generic prefetch): the paper's core claim is that
// the coupling is what protects prefetched lines from early eviction.
func BenchmarkAblationCoupling(b *testing.B) {
	var coupled, uncoupled float64
	for i := 0; i < b.N; i++ {
		c, err := sharedRunner.Fig10(ablationApps)
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := c.SeriesByName("apres"); ok {
			coupled = s.Mean(ablationApps)
		}
		if s, ok := c.SeriesByName("laws+str"); ok {
			uncoupled = s.Mean(ablationApps)
		}
	}
	b.ReportMetric(coupled, "apres-speedup")
	b.ReportMetric(uncoupled, "laws+str-speedup")
}

// TestSimulatorAllocBudget guards the allocation-free per-cycle path: a full
// simulation at bench scale allocates for its one-time setup and for queues,
// tables and pools growing to their working size, and nothing per cycle, per
// access or per scheduler/prefetcher event. The baseline configuration must
// stay within a fixed budget per app (`go run ./bench` reports
// gpu.allocs_per_sim); CCWS+STR and APRES — which add the CCWS victim tags,
// the STR and SAP tables, LAWS regrouping and the prefetch queue to the hot
// path — must stay within 1.5x of the same app's baseline count, so a
// scheduler or prefetcher that allocates per event (they did: LAWS.partition,
// SAP's sort, STR's request slice, WarpMask.Warps in CCWS.Pick) fails here. A
// regression means something on the per-cycle path started allocating —
// including, per the tracing contract, any cost from the disabled (nil)
// tracer. The parallel leg additionally pins the epoch engine's steady-state
// overhead to within 1% of serial: with the engine's working set (schedules,
// barrier buffers, injection queues) and the memory system's fill mirrors
// pooled across runs, a parallel run's extra allocations are just the engine
// struct, the barrier's park slots, and the goroutine spawns. It asks for 4
// workers and gets min(4, GOMAXPROCS); on a one-processor host that is the
// serial engine and the leg compares serial with itself.
func TestSimulatorAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("full bench-scale simulations")
	}
	allocs := func(cfg config.Config, kern kernel.Kernel, opts ...gpu.Option) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := gpu.Simulate(cfg, kern, opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
	for app, budget := range map[string]float64{"SP": 4500, "BFS": 7000, "KM": 6500} {
		w, ok := workloads.ByName(app)
		if !ok {
			t.Fatalf("unknown workload %s", app)
		}
		kern := w.Kernel.Scaled(benchScale)
		serial := allocs(config.Baseline(), kern)
		if serial > budget {
			t.Errorf("%s: %.0f allocs/run, budget %.0f", app, serial, budget)
		}
		par := allocs(config.Baseline(), kern, gpu.WithParallelSMs(4))
		if limit := serial * 1.01; par > limit {
			t.Errorf("%s: parallel %.0f allocs/run exceeds serial %.0f by more than 1%% (limit %.0f)",
				app, par, serial, limit)
		}
		for _, name := range []string{"ccws+str", "apres"} {
			cfg, err := harness.NamedConfig(name)
			if err != nil {
				t.Fatal(err)
			}
			got := allocs(cfg, kern)
			t.Logf("%s: base %.0f, %s %.0f allocs/run", app, serial, name, got)
			if limit := 1.5 * serial; got > limit {
				t.Errorf("%s/%s: %.0f allocs/run exceeds 1.5x the baseline's %.0f (limit %.0f)",
					app, name, got, serial, limit)
			}
		}
	}
}
