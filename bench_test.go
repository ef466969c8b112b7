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
	"fmt"
	"runtime"
	"testing"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/kernel"
	"apres/internal/twin"
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

// benchAblation measures APRES mean speedup under a config adjustment.
func benchAblation(b *testing.B, adjust func(*config.Config)) float64 {
	b.Helper()
	r := harness.NewRunner(benchScale, benchSMs)
	r.Adjust = adjust
	var mean float64
	for i := 0; i < b.N; i++ {
		c, err := r.Fig10(ablationApps)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := c.SeriesByName("apres")
		mean = s.Mean(ablationApps)
	}
	return mean
}

func BenchmarkAblationWGTDepth(b *testing.B) {
	for _, depth := range []int{1, 3, 8} {
		depth := depth
		b.Run(map[int]string{1: "wgt1", 3: "wgt3-paper", 8: "wgt8"}[depth], func(b *testing.B) {
			m := benchAblation(b, func(c *config.Config) {
				if c.APRESCoupling {
					c.LAWSWGTEntries = depth
				}
			})
			b.ReportMetric(m, "apres-speedup")
		})
	}
}

func BenchmarkAblationPTSize(b *testing.B) {
	for _, size := range []int{2, 10, 32} {
		size := size
		b.Run(map[int]string{2: "pt2", 10: "pt10-paper", 32: "pt32"}[size], func(b *testing.B) {
			m := benchAblation(b, func(c *config.Config) {
				if c.APRESCoupling {
					c.SAPPTEntries = size
				}
			})
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
			m := benchAblation(b, func(c *config.Config) {
				if c.Scheduler == config.SchedLAWS {
					c.LAWSTailDemotion = on
				}
			})
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
			m := benchAblation(b, func(c *config.Config) {
				if c.APRESCoupling {
					c.SAPStrideGate = on
				}
			})
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

// BenchmarkFig10ByJobs measures the worker pool's scaling: the same figure
// regenerated from a cold cache at increasing -jobs widths. On a multicore
// host the wall time per op should drop roughly linearly until the core
// count (or the longest single simulation) is reached.
func BenchmarkFig10ByJobs(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		jobs := jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh runner per iteration busts the cache so the
				// benchmark measures simulation fan-out, not memoisation.
				r := harness.NewRunner(benchScale, benchSMs)
				r.Jobs = jobs
				if _, err := r.Fig10(ablationApps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles
// simulated per second) — useful when sizing new experiments. The skip
// sub-benchmarks run the event-driven loop as shipped; the noskip pair
// forces the cycle-by-cycle loop, so the ratio is the fast-forwarding win
// on memory-intensive workloads; the par{2,4,8} legs shard the per-SM loop
// across that many worker goroutines (bit-identical results — the ratio to
// skip is the epoch/barrier engine's wall-clock win at the paper's 15 SMs).
// `go run ./bench -workload sim_serial` / `sim_smjobs2` is the benchmark of
// record for the same engines at full scale (bench/reference.json).
//
// TestSimulatorAllocBudget guards the allocation-free per-cycle path: a full
// simulation at bench scale allocates for its one-time setup and for queues,
// tables and pools growing to their working size, and nothing per cycle, per
// access or per scheduler/prefetcher event. The baseline configuration must
// stay within a fixed budget per app (BenchmarkSimulatorThroughput reports
// allocs/op); CCWS+STR and APRES — which add the CCWS victim tags, the STR
// and SAP tables, LAWS regrouping and the prefetch queue to the hot path —
// must stay within 1.5x of the same app's baseline count, so a scheduler or
// prefetcher that allocates per event (they did: LAWS.partition, SAP's sort,
// STR's request slice, WarpMask.Warps in CCWS.Pick) fails here. A regression
// means something on the per-cycle path started allocating — including, per
// the tracing contract, any cost from the disabled (nil) tracer. The parallel
// leg additionally pins the epoch engine's steady-state overhead to within
// 1% of serial: with the engine's working set (schedules, barrier buffers,
// injection queues) and the memory system's fill mirrors pooled across runs,
// a parallel run's extra allocations are just the engine struct, the
// barrier's park slots, and the goroutine spawns.
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

// BenchmarkTwinThroughput measures the analytical twin's steady-state query
// latency on the same workloads and scale as BenchmarkSimulatorThroughput —
// the ratio of the two is the fast path's serving win (`go run ./bench
// -workload serve_mixed -trace 1` measures the twin inside the serving path;
// bench/reference.json records it).
// The predict legs time Model.Predict alone; the engine legs go through the
// harness engine selector (twinServe + gpu.Result synthesis), which is what
// apresd's serving path pays per twin-served request.
func BenchmarkTwinThroughput(b *testing.B) {
	model := twin.New()
	for _, app := range []string{"SP", "BFS"} {
		w, ok := workloads.ByName(app)
		if !ok {
			b.Fatalf("unknown workload %s", app)
		}
		w.Kernel = w.Kernel.Scaled(benchScale)
		cfg := config.APRES()
		b.Run(app+"/predict", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.Predict(app, w, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
		b.Run(app+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			r := harness.NewRunner(benchScale, benchSMs)
			req := harness.EngineReq{Engine: harness.EngineTwin}
			for i := 0; i < b.N; i++ {
				out, err := r.RunEngineNamed(context.Background(), app, "apres", false, req, harness.RunOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if out.Engine != harness.EngineTwin {
					b.Fatalf("served by %q, want the twin", out.Engine)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkAdvanceInflation is the false-sharing guard for the parallel
// engine: how much more SM-side CPU time the two workers of a -smjobs 2 run
// of SP/base spend when they really run side by side than when the same two
// blocks run back to back. The serial loop's SM side cannot be timed from
// outside the engine, so the denominator is the same engine at GOMAXPROCS 1,
// where the coordinator's block and the worker's block take turns on one
// processor (advance + barrier wait is then their sum); the numerator at
// GOMAXPROCS 2 is the coordinator's block plus the worker's, which started
// with it and ended when the barrier wait did. 1.0 means overlapping is
// free. Per-cycle words of SMs on different workers sharing a cache line
// push it up — and so does a host whose two threads share one core, so read
// a high value next to TestParallelWallClock's side-by-side probe.
func BenchmarkAdvanceInflation(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Skip("needs two hardware threads for the workers to overlap")
	}
	w, ok := workloads.ByName("SP")
	if !ok {
		b.Fatal("unknown workload SP")
	}
	smSide := func(procs int) (adv, wait float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := gpu.Simulate(config.Baseline(), w.Kernel, gpu.WithParallelSMs(2))
		if err != nil {
			b.Fatal(err)
		}
		es := res.EngineStats
		return float64(es.AdvanceNS), float64(es.BarrierWaitNS)
	}
	var overlapped, backToBack float64
	for i := 0; i < b.N; i++ {
		adv, wait := smSide(2)
		overlapped += 2*adv + wait
		adv, wait = smSide(1)
		backToBack += adv + wait
	}
	b.ReportMetric(overlapped/backToBack, "advance-inflation")
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, app := range []string{"SP", "BFS", "KM", "NW"} {
		w, ok := workloads.ByName(app)
		if !ok {
			b.Fatalf("unknown workload %s", app)
		}
		kern := w.Kernel.Scaled(benchScale)
		for _, mode := range []struct {
			name string
			opts []gpu.Option
		}{
			{"skip", nil},
			{"noskip", []gpu.Option{gpu.WithoutCycleSkipping()}},
			{"par2", []gpu.Option{gpu.WithParallelSMs(2)}},
			{"par4", []gpu.Option{gpu.WithParallelSMs(4)}},
			{"par8", []gpu.Option{gpu.WithParallelSMs(8)}},
		} {
			b.Run(app+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles int64
				for i := 0; i < b.N; i++ {
					res, err := gpu.Simulate(config.Baseline(), kern, mode.opts...)
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.Cycles
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}
