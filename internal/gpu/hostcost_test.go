package gpu

import (
	"testing"
	"time"

	"apres/internal/config"
	"apres/internal/workloads"
)

// TestPolicyHostCost is the gate that a scheduler or prefetcher does not make
// a cell much more expensive to simulate than its baseline cell: the policy
// decisions are mask arithmetic and amortised O(1) updates, so what a policy
// cell costs beyond base should be the different cycles it simulates, not the
// policy code. Before that was true, CCWS's eligibility sort made ccws+str
// 2.7–3.0x base on HS and PF, and the group schedulers' per-warp closure loop
// made twolevel 1.8–2.05x base on SP; they measure about 1.2x and 1.0x now.
//
// Times are minima over alternating runs at full scale, and a comparison
// that fails is re-measured, up to three rounds, for the reasons given on
// TestParallelWallClock.
func TestPolicyHostCost(t *testing.T) {
	switch {
	case testing.Short():
		t.Skip("full-scale timing runs; skipped in -short")
	case raceEnabled:
		t.Skip("race instrumentation distorts the timings")
	}
	const (
		runsPerRound = 5
		rounds       = 3
	)
	ccwsSTR := config.Baseline()
	ccwsSTR.Scheduler, ccwsSTR.Prefetcher = config.SchedCCWS, config.PrefSTR
	twoLevel := config.Baseline()
	twoLevel.Scheduler = config.SchedTwoLevel
	for _, c := range []struct {
		app, cfgName string
		cfg          config.Config
		// limit is the policy cell's wall time allowed, as a multiple of the
		// base cell's.
		limit float64
	}{
		{"HS", "ccws+str", ccwsSTR, 1.6},
		{"PF", "ccws+str", ccwsSTR, 1.6},
		{"SP", "twolevel", twoLevel, 1.5},
	} {
		t.Run(c.app+"/"+c.cfgName, func(t *testing.T) {
			w, ok := workloads.ByName(c.app)
			if !ok {
				t.Fatalf("unknown workload %s", c.app)
			}
			run := func(cfg config.Config) (time.Duration, int64) {
				start := time.Now()
				res, err := Simulate(cfg, w.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				return time.Since(start), res.Total.Instructions
			}
			for round := 0; round < rounds; round++ {
				base, policy := time.Duration(1<<62), time.Duration(1<<62)
				var baseInsts, policyInsts int64
				for i := 0; i < runsPerRound; i++ {
					d, n := run(config.Baseline())
					base, baseInsts = min(base, d), n
					d, n = run(c.cfg)
					policy, policyInsts = min(policy, d), n
				}
				mwinst := func(n int64, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }
				t.Logf("round %d: base %v (%.2f Mwinst/s), %s %v (%.2f Mwinst/s), %.2fx",
					round, base, mwinst(baseInsts, base), c.cfgName, policy, mwinst(policyInsts, policy),
					float64(policy)/float64(base))
				if float64(policy) <= c.limit*float64(base) {
					return
				}
			}
			t.Errorf("%s never came under %.2fx the base cell's wall time", c.cfgName, c.limit)
		})
	}
}
