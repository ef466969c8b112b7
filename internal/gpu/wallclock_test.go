package gpu

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"apres/internal/config"
	"apres/internal/stats"
	"apres/internal/workloads"
)

// TestParallelWallClock is the gate that the parallel engine pays its way
// on the host running the tests: at full scale, two workers must beat the
// serial engine's wall time on a compute-bound cell (SP/base) and a mixed
// one (NW/apres), and stay within 5% of it on KM/apres, where the
// single-threaded barrier drain (the serial loop's whole memory side)
// dominates.
//
// Times are minima over alternating runs, the least disturbed run of each
// engine. A shared host does not always deliver the two threads it
// advertises — two independent serial simulations run side by side here
// have been seen to take anything from 1x to 2x their solo time, in phases
// lasting seconds — and no two-worker engine can win on one thread's worth
// of CPU. So a comparison that fails is re-measured, up to three rounds,
// and a failed round counts against the engine only if two serial runs
// started side by side right after it finish in under 1.25x the solo time;
// if the host never shows two free threads the test skips, exactly as it
// does on a one-CPU host.
func TestParallelWallClock(t *testing.T) {
	switch {
	case testing.Short():
		t.Skip("full-scale timing runs; skipped in -short")
	case raceEnabled:
		t.Skip("race instrumentation distorts the timings")
	case runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2:
		t.Skip("needs two hardware threads to measure a parallel win")
	}
	const (
		runsPerRound = 5
		rounds       = 3
	)
	for _, c := range []struct {
		app, cfgName string
		cfg          config.Config
		// limit is the parallel wall time allowed, as a multiple of serial.
		limit float64
	}{
		{"SP", "base", config.Baseline(), 1.0},
		{"NW", "apres", config.APRES(), 1.0},
		{"KM", "apres", config.APRES(), 1.05},
	} {
		t.Run(c.app+"/"+c.cfgName, func(t *testing.T) {
			w, ok := workloads.ByName(c.app)
			if !ok {
				t.Fatalf("unknown workload %s", c.app)
			}
			run := func(opts ...Option) (time.Duration, stats.EngineStats) {
				start := time.Now()
				res, err := Simulate(c.cfg, w.Kernel, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return time.Since(start), res.EngineStats
			}
			lost := false
			for round := 0; round < rounds; round++ {
				serial, par := time.Duration(1<<62), time.Duration(1<<62)
				var prof stats.EngineStats
				for i := 0; i < runsPerRound; i++ {
					d, _ := run()
					serial = min(serial, d)
					if d, es := run(WithParallelSMs(2)); d < par {
						par, prof = d, es
					}
				}
				perEpoch := func(ns int64) time.Duration { return time.Duration(ns / prof.Epochs) }
				t.Logf("round %d: serial %v, 2 workers %v (%.2fx); per epoch over %d epochs: prepare %v, advance %v, barrier wait %v, drain %v",
					round, serial, par, float64(par)/float64(serial), prof.Epochs,
					perEpoch(prof.PrepareNS), perEpoch(prof.AdvanceNS), perEpoch(prof.BarrierWaitNS), perEpoch(prof.DrainNS))
				if float64(par) < c.limit*float64(serial) {
					return
				}
				start := time.Now()
				var wg sync.WaitGroup
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						run()
					}()
				}
				wg.Wait()
				sideBySide := time.Since(start)
				t.Logf("round %d: two serial runs side by side took %v", round, sideBySide)
				lost = lost || sideBySide < serial*5/4
			}
			if !lost {
				t.Skip("the host never had two threads free after a losing round")
			}
			t.Errorf("2 workers never came under %.2fx the serial engine's wall time, with two threads free", c.limit)
		})
	}
}
