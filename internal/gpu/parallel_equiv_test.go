package gpu

import (
	"fmt"
	"runtime"
	"testing"

	"apres/internal/config"
	"apres/internal/stats"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// parallelWorkerCounts are the WithParallelSMs values the differential
// suite pins: 1 (must take the serial path), 2 and 4 (uneven partitions of
// the 5-SM shrink), and 8 (more workers than SMs, exercising the clamp).
// The suites that run them raise GOMAXPROCS to 8 first (atLeastProcs), so
// the processor clamp leaves every partition to run.
var parallelWorkerCounts = []int{1, 2, 4, 8}

// atLeastProcs raises GOMAXPROCS to n until t and all its subtests are done,
// so New does not clamp WithParallelSMs(n) below n on a smaller host.
func atLeastProcs(t testing.TB, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// parallelEquivSMs uses 5 SMs so worker counts 2 and 4 produce uneven
// partitions (the case where a naive merge order would diverge first) while
// keeping the 15x3x(2+2x4) run matrix affordable under -race.
const parallelEquivSMs = 5

// TestParallelEquivalence is the acceptance story of the parallel engine:
// for every workload and configuration, a run sharded across n worker
// goroutines must be bit-identical to the serial reference — same cycle
// count, same aggregate and per-SM statistics, same per-PC load
// characterisation, and (in the traced variant) the same event stream
// and interval series element by element. This is the Accel-Sim-style
// contract that makes the parallel model trustworthy: it is not an
// approximation of the serial one, it *is* the serial one, faster.
func TestParallelEquivalence(t *testing.T) {
	atLeastProcs(t, 8)
	runMatrix(t, parallelEquivSMs, func(t *testing.T, c matrixCase) {
		serial := runEquivCell(t, c, false)
		serialTr := runEquivCell(t, c, true)
		for _, n := range parallelWorkerCounts {
			par := runEquivCell(t, c, false, WithParallelSMs(n))
			requireSameRun(t, fmt.Sprintf("par%d", n), serial, par)
			parTr := runEquivCell(t, c, true, WithParallelSMs(n))
			requireSameRun(t, fmt.Sprintf("par%d+trace", n), serialTr, parTr)
			requireSameRegime(t, fmt.Sprintf("par%d", n), par.Res.EngineStats, parTr.Res.EngineStats)
			requireCoverageAtMostOne(t, fmt.Sprintf("par%d", n), par.Res)
		}
	})
}

// TestParallelEquivalenceOneProc pins the processor clamp at its floor: with
// one processor for Go to schedule on, WithParallelSMs(8) must run the
// serial engine — no epochs, no workers — traced and untraced. The barrier's
// park/signal path, which this matrix used to drive when workers outnumbered
// processors, has its own hand-off test (TestBarrierPingPongOneProc).
func TestParallelEquivalenceOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The group returns only once its parallel subtests have finished, which
	// is what keeps them inside the GOMAXPROCS(1) section.
	t.Run("matrix", func(t *testing.T) {
		runMatrix(t, parallelEquivSMs, func(t *testing.T, c matrixCase) {
			for _, traced := range []bool{false, true} {
				par := runEquivCell(t, c, traced, WithParallelSMs(8))
				if es := par.Res.EngineStats; es != (stats.EngineStats{}) {
					t.Fatalf("traced=%v: WithParallelSMs(8) at GOMAXPROCS 1 ran an engine: %+v", traced, es)
				}
				requireSameRun(t, fmt.Sprintf("par8 traced=%v", traced), runEquivCell(t, c, traced), par)
			}
		})
	})
}

// TestParallelSMsClampedToProcs asks for more workers than GOMAXPROCS: the
// run must report the clamped count and stay bit-identical to serial.
func TestParallelSMsClampedToProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, w := range []string{"SP", "KM"} {
		wl, _ := workloads.ByName(w)
		c := matrixCase{WName: w, CName: "base", Cfg: config.Baseline(), Kern: wl.Kernel.Scaled(equivScale)}
		c.Cfg.NumSMs = parallelEquivSMs
		par := runEquivCell(t, c, false, WithParallelSMs(8))
		if got := par.Res.EngineStats.SMJobs; got != 2 {
			t.Errorf("%s: WithParallelSMs(8) at GOMAXPROCS 2 reports SMJobs %d, want 2", w, got)
		}
		requireSameRun(t, w+"/par8@2", runEquivCell(t, c, false), par)
	}
}

// requireSameRegime asserts that a traced parallel run planned, fanned out
// and skipped exactly what its untraced twin did: observing a run must not
// change which code runs.
func requireSameRegime(t *testing.T, label string, untraced, traced stats.EngineStats) {
	t.Helper()
	if untraced.Epochs != traced.Epochs || untraced.EpochCycles != traced.EpochCycles ||
		untraced.SkippedCycles != traced.SkippedCycles {
		t.Fatalf("%s: tracing changed the epochs: traced %d epochs / %d epoch cycles / %d skipped, untraced %d / %d / %d",
			label, traced.Epochs, traced.EpochCycles, traced.SkippedCycles,
			untraced.Epochs, untraced.EpochCycles, untraced.SkippedCycles)
	}
}

// TestParallelNoSkipEquivalence crosses the parallel engine with the
// cycle-by-cycle (no skipping) loop: epochs still form, but workers tick
// every cycle. This isolates the epoch/barrier protocol from the wakeup
// cache — a bug in either shows up in exactly one of the two parallel
// suites.
func TestParallelNoSkipEquivalence(t *testing.T) {
	atLeastProcs(t, 4)
	runMatrix(t, parallelEquivSMs, func(t *testing.T, c matrixCase) {
		serial := runEquivCell(t, c, false)
		for _, n := range []int{2, 4} {
			par := runEquivCell(t, c, false, WithParallelSMs(n), WithoutCycleSkipping())
			requireSameRun(t, fmt.Sprintf("par%d+noskip", n), serial, par)
			requireCoverageAtMostOne(t, fmt.Sprintf("par%d+noskip", n), par.Res)
		}
	})
}

// TestFillStormParallelEquivalence runs the checked-in fill-storm spec —
// uncoalesced never-reused streams whose DRAM fills complete nearly every
// cycle — through the equivalence harness. It is the adversarial input for
// in-epoch fill delivery: almost every epoch contains fill pops, so the
// frozen-schedule and merge-mirroring machinery carries the run rather than
// the (rarely exercised on Table I workloads) quiet-window fast path.
func TestFillStormParallelEquivalence(t *testing.T) {
	spec, err := workspec.ParseFile("../../examples/specs/fill_storm.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	atLeastProcs(t, 8)
	for _, cc := range equivConfigs() {
		c := matrixCase{
			WName: w.Name(),
			CName: cc.name,
			Cfg:   cc.cfg,
			Kern:  w.Kernel.Scaled(equivScale),
		}
		c.Cfg.NumSMs = parallelEquivSMs
		t.Run(c.CName, func(t *testing.T) {
			t.Parallel()
			serial := runEquivCell(t, c, false)
			serialTr := runEquivCell(t, c, true)
			for _, n := range parallelWorkerCounts {
				par := runEquivCell(t, c, false, WithParallelSMs(n))
				requireSameRun(t, fmt.Sprintf("par%d", n), serial, par)
				parTr := runEquivCell(t, c, true, WithParallelSMs(n))
				requireSameRun(t, fmt.Sprintf("par%d+trace", n), serialTr, parTr)
				requireSameRegime(t, fmt.Sprintf("par%d", n), par.Res.EngineStats, parTr.Res.EngineStats)
			}
		})
	}
}

// TestKMFullScaleParallelEquivalence is the full-size leg for the blocked
// LSU: KM at scale 1 on all 15 SMs, where 88% of SM-cycles are an LSU head
// asleep on a full MSHR file and whole epochs end with every SM asleep, so
// the serial loop's skips, the bulk skip inside workers and the idle jump
// between epochs all carry thousands of L1 stalls at a time, against a
// reference that ticks every cycle. The equivScale matrix reaches the same
// code, but not stretches this long nor every SM at once.
func TestKMFullScaleParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulations")
	}
	w, ok := workloads.ByName("KM")
	if !ok {
		t.Fatal("unknown workload KM")
	}
	atLeastProcs(t, 4)
	for _, cc := range equivConfigs()[:2] { // base, apres
		c := matrixCase{WName: w.Name(), CName: cc.name, Cfg: cc.cfg, Kern: w.Kernel}
		t.Run(c.CName, func(t *testing.T) {
			t.Parallel()
			serial := runEquivCell(t, c, false)
			if st := serial.Res.Total; 2*st.L1Stalls < st.IssueStallCycles {
				t.Fatalf("KM/%s: %d L1 stalls in %d issue-stall cycles: no longer the thrashing case this test is for",
					c.CName, st.L1Stalls, st.IssueStallCycles)
			}
			requireSameRun(t, "noskip", serial, runEquivCell(t, c, false, WithoutCycleSkipping()))
			for _, n := range []int{2, 4} {
				par := runEquivCell(t, c, false, WithParallelSMs(n))
				requireSameRun(t, fmt.Sprintf("par%d", n), serial, par)
				if par.Res.EngineStats.SkippedCycles == 0 {
					t.Errorf("par%d: no cycle skipped between epochs: every SM asleep at an epoch's end did not happen", n)
				}
			}
		})
	}
}
