package gpu

import (
	"reflect"
	"testing"
)

// TestSkipEquivalence is the tentpole guarantee of the event-driven run
// loop: for every workload and configuration, a run with cycle skipping
// enabled must produce a Result bit-identical to the cycle-by-cycle run —
// same cycles, same per-SM stats, same per-PC load characterisation. Any
// divergence means a skipped cycle was not actually inert, which is a
// correctness bug in a NextWakeup/NextEventCycle/NextDeliveryCycle bound,
// never an acceptable drift.
func TestSkipEquivalence(t *testing.T) {
	runMatrix(t, 2, func(t *testing.T, c matrixCase) {
		skip := runEquivCell(t, c, false)
		noskip := runEquivCell(t, c, false, WithoutCycleSkipping())
		requireSameRun(t, "noskip", skip, noskip)
	})
}

// TestTraceEquivalence enforces the tracing subsystem's correctness
// contract: attaching a Tracer must not change the simulation in any way.
// For every workload and configuration the traced Result is compared
// bit-for-bit against the untraced one, and the traced run must actually
// have produced events (an accidentally detached tracer would pass the
// equality check vacuously).
func TestTraceEquivalence(t *testing.T) {
	runMatrix(t, 2, func(t *testing.T, c matrixCase) {
		plain := runEquivCell(t, c, false)
		traced := runEquivCell(t, c, true)
		if !reflect.DeepEqual(plain.Res, traced.Res) {
			t.Fatalf("tracing changed the simulated result:\nplain:  %+v\ntraced: %+v", plain.Res, traced.Res)
		}
		if len(traced.Events) == 0 {
			t.Fatal("traced run emitted no events")
		}
		if len(traced.Samples) == 0 {
			t.Fatal("traced run recorded no interval samples")
		}
	})
}

// TestTraceSkipInvariance pins down the subtler half of the tracing
// contract: the event stream and interval series themselves must be
// bit-identical between the event-driven (cycle-skipping) loop and the
// cycle-by-cycle loop. This is what forces warp events to be
// transition-only and the stall classifier to use only gap-invariant state
// — a reason that could flip mid-gap (e.g. a ring delay expiring while all
// live warps are memory-blocked) would emit extra events only in the
// noskip run.
func TestTraceSkipInvariance(t *testing.T) {
	runMatrix(t, 2, func(t *testing.T, c matrixCase) {
		skip := runEquivCell(t, c, true)
		noskip := runEquivCell(t, c, true, WithoutCycleSkipping())
		requireSameRun(t, "noskip+trace", skip, noskip)
	})
}
