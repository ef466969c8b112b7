package gpu

import (
	"testing"

	"apres/internal/config"
	"apres/internal/workloads"
)

// TestEpochCoverageFloors pins the parallel engine's epoch coverage — of the
// simulated cycles the engine executed (those not jumped as idle between
// epochs), the fraction inside worker-fanned epochs — at
// full scale under the APRES config, for the four bench workloads. Coverage
// is deterministic (the epoch planner sees the same event sequence every
// run), so these floors hold on any host, including a single-threaded one
// where TestParallelWallClock, the gate that measures the actual win, has
// to skip itself. A drop below a floor means an epoch-bound regression:
// windows are ending early somewhere they provably need not.
func TestEpochCoverageFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale runs; skipped in -short")
	}
	cases := []struct {
		app string
		// floor is the pinned minimum coverage. Measured values are
		// 0.9983-1.0000: epochs chain back to back at the full
		// min(L2,DRAM)-latency width, so coverage is structural, not
		// marginal — 0.95 leaves headroom for workload drift. (Over all
		// cycles, skipped ones included, KM reads 0.9415: every SM's LSU
		// asleep at an epoch's end lets the engine jump to the next fill.)
		floor float64
	}{
		{"SP", 0.95},
		{"BFS", 0.95},
		{"KM", 0.95},
		{"NW", 0.95},
	}
	for _, c := range cases {
		c := c
		t.Run(c.app, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByName(c.app)
			if !ok {
				t.Fatalf("unknown workload %s", c.app)
			}
			res, err := Simulate(config.APRES(), w.Kernel, WithParallelSMs(4))
			if err != nil {
				t.Fatal(err)
			}
			es := res.EngineStats
			cov := es.Coverage(res.Cycles)
			t.Logf("%s: coverage %.4f (%d epochs, avg %.1f cycles, %d of %d cycles, %d skipped)",
				c.app, cov, es.Epochs, es.AvgEpochCycles(), es.EpochCycles, res.Cycles, es.SkippedCycles)
			if cov < c.floor {
				t.Errorf("%s: epoch coverage %.4f below pinned floor %.2f", c.app, cov, c.floor)
			}
		})
	}
}
