package gpu

import (
	"testing"

	"apres/internal/config"
	"apres/internal/workloads"
)

// TestEpochCoverageFloors pins the parallel engine's epoch coverage — the
// fraction of simulated cycles executed inside worker-fanned epochs — at
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
		// 0.9966-0.9999 (`go run ./bench -workload sim_smjobs2 -trace 1`
		// reports gpu.epoch_coverage): epochs chain back to back at the
		// full min(L2,DRAM)-latency width, so coverage is structural, not
		// marginal — 0.95 leaves headroom for workload drift.
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
			t.Logf("%s: coverage %.4f (%d epochs, avg %.1f cycles, %d/%d cycles)",
				c.app, cov, es.Epochs, es.AvgEpochCycles(), es.EpochCycles, res.Cycles)
			if cov < c.floor {
				t.Errorf("%s: epoch coverage %.4f below pinned floor %.2f", c.app, cov, c.floor)
			}
		})
	}
}
