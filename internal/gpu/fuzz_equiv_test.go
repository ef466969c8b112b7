package gpu

import (
	"reflect"
	"testing"

	"apres/internal/arch"
	"apres/internal/kernel"
	"apres/internal/trace"
)

// This file extends the engine-equivalence guarantee beyond the 15 Table I
// kernels: randomly shaped workloads — warp counts, strides, localities,
// wrap regions, jitter, refill, stores — must also produce bit-identical
// cycle counts and final statistics across the cycle-by-cycle loop, the
// event-driven (skipping) loop, and the parallel epoch/barrier engine.
// FuzzEngineEquivalence lets `go test -fuzz` explore the shape space;
// TestEngineEquivalenceQuickCheck replays a fixed seeded sweep of the same
// property on every ordinary `go test` run.

// checkEngineEquivalence decodes raw fuzz inputs into a valid workload
// shape (every input decodes to something runnable — the fuzzer explores
// shapes, not validity) and asserts serial ≡ skip ≡ parallel, and that a
// traced parallel run emits the serial run's event stream and interval
// samples and takes the untraced parallel run's epochs.
func checkEngineEquivalence(t *testing.T,
	warps, iters, aluN, jitter, lane1, lane2, flags uint8,
	ws1, ws2 int16, wrap1, wrap2 uint16, seed uint64) {
	t.Helper()
	atLeastProcs(t, 4) // the 4-worker leg must not be clamped to 2

	laneStride := func(sel uint8) int64 {
		switch sel % 4 {
		case 0:
			return 4 // fully coalesced: one line per warp
		case 1:
			return 128 // one line per lane: fully uncoalesced
		case 2:
			return 0 // warp-uniform address
		default:
			return 36 // partially coalesced, line-straddling
		}
	}
	pat := func(idx int, ws int16, lane uint8, wrap uint16, random, laneRandom, shared, perSM bool) kernel.Pattern {
		p := kernel.Pattern{
			Base:       arch.Addr(int64(idx+1) << 32),
			WarpStride: int64(ws) * 16,
			IterStride: int64(int8(wrap>>8)) * 64,
			LaneStride: laneStride(lane),
			WrapBytes:  (1 + int64(wrap%512)) * arch.LineSizeBytes,
			Random:     random,
			LaneRandom: laneRandom,
			Seed:       seed,
		}
		if perSM {
			p.SMStride = 1 << 26
		}
		if shared {
			p.WarpShare = 64 // warp-invariant: the inter-warp-locality case
		}
		if lane%8 >= 6 {
			p.IterWrapBytes = (1 + int64(wrap%64)) * arch.LineSizeBytes
		}
		return p
	}

	nWarps := 1 + int(warps%8)
	body := []kernel.Inst{
		{Op: kernel.OpLoad, PC: 0x10,
			Pattern: pat(0, ws1, lane1, wrap1, flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0)},
		{Op: kernel.OpALU, DependsOnMem: true},
		{Op: kernel.OpALU, Repeat: 1 + int(aluN%32), RepeatJitter: int(jitter % 8)},
		{Op: kernel.OpLoad, PC: 0x20,
			Pattern: pat(1, ws2, lane2, wrap2, flags&16 != 0, false, flags&32 != 0, flags&8 == 0)},
		{Op: kernel.OpALU, DependsOnMem: true},
	}
	if flags&64 != 0 {
		body = append(body, kernel.Inst{Op: kernel.OpShared})
	}
	if flags&128 != 0 {
		body = append(body, kernel.Inst{Op: kernel.OpStore, PC: 0x30,
			Pattern: pat(2, ws1^ws2, lane2, wrap1, false, false, false, true)})
	}
	kern := kernel.Kernel{
		Name:       "FUZZ",
		Program:    kernel.Program{Body: body, Iterations: 1 + int(iters%8)},
		WarpsPerSM: nWarps,
	}
	if jitter&8 != 0 {
		// Exercise the warp-refill (CTA replacement) path.
		kern.LaunchWarpsPerSM = nWarps * 2
	}
	if err := kern.Program.Validate(); err != nil {
		t.Fatalf("decoded an invalid program (decoder bug): %v", err)
	}

	cfgs := equivConfigs()
	cfg := cfgs[int(flags>>4)%len(cfgs)].cfg
	cfg.NumSMs = 2 + int(seed%3) // 2..4
	// Bound runaway shapes; all engine variants share the bound, so
	// equivalence must hold whether or not it is hit.
	cfg.MaxCycles = 300_000

	ref, err := Simulate(cfg, kern, WithoutCycleSkipping())
	if err != nil {
		t.Fatal(err)
	}
	skip, err := Simulate(cfg, kern)
	if err != nil {
		t.Fatal(err)
	}
	jobs := 2 + int(flags%3) // 2..4 workers
	par, err := Simulate(cfg, kern, WithParallelSMs(jobs))
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range []struct {
		name string
		res  Result
	}{{"skip", skip}, {"parallel", par}} {
		if v.res.Cycles != ref.Cycles || v.res.HitMaxCycles != ref.HitMaxCycles {
			t.Fatalf("%s engine diverges: cycles %d (hitMax %v) vs serial reference %d (hitMax %v)",
				v.name, v.res.Cycles, v.res.HitMaxCycles, ref.Cycles, ref.HitMaxCycles)
		}
		if !reflect.DeepEqual(v.res.Total, ref.Total) {
			t.Fatalf("%s engine aggregate stats diverge:\n%s:    %+v\nserial: %+v",
				v.name, v.name, v.res.Total, ref.Total)
		}
		if !reflect.DeepEqual(v.res.PerSM, ref.PerSM) {
			t.Fatalf("%s engine per-SM stats diverge:\n%s:    %+v\nserial: %+v",
				v.name, v.name, v.res.PerSM, ref.PerSM)
		}
	}

	// Traced legs: fill-heavy random shapes put many NoC injections inside
	// each window, which is what the barrier's inject merge must order.
	traced := func(opts ...Option) equivRun {
		sink := &trace.CollectSink{}
		tr := trace.New(sink, 64)
		res, err := Simulate(cfg, kern, append(opts, WithTrace(tr))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return equivRun{Res: res, Events: sink.Events, Samples: sink.Samples}
	}
	parTr := traced(WithParallelSMs(jobs))
	requireSameRun(t, "parallel+trace", traced(), parTr)
	requireSameRegime(t, "parallel", par.EngineStats, parTr.Res.EngineStats)
}

// FuzzEngineEquivalence is the native-fuzzing entry point (CI runs a short
// -fuzz smoke; `go test` replays the seed corpus).
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), uint8(1), uint8(0), uint8(1), uint8(0b00010110),
		int16(32), int16(-4), uint16(512), uint16(64), uint64(1))
	f.Add(uint8(7), uint8(5), uint8(0), uint8(9), uint8(2), uint8(3), uint8(0b11000001),
		int16(0), int16(8), uint16(4), uint16(40000), uint64(1234567))
	f.Add(uint8(1), uint8(7), uint8(31), uint8(0), uint8(6), uint8(7), uint8(0b10101010),
		int16(-512), int16(512), uint16(65535), uint16(0), uint64(99))
	f.Add(uint8(4), uint8(1), uint8(15), uint8(12), uint8(1), uint8(0), uint8(0b01110000),
		int16(128), int16(128), uint16(256), uint16(256), uint64(42))
	// Fill-storm shape (examples/specs/fill_storm.json): line-per-lane
	// uncoalesced streams with large opposite-sign strides, per-SM
	// footprints, stores, and warp refill — nearly every epoch contains
	// DRAM fill pops, stressing in-epoch fill delivery and merge mirroring.
	f.Add(uint8(7), uint8(7), uint8(0), uint8(8), uint8(1), uint8(1), uint8(0b10001000),
		int16(32767), int16(-32768), uint16(0x7FFF), uint16(0x81FF), uint64(2026))
	f.Fuzz(checkEngineEquivalence)
}

// TestEngineEquivalenceQuickCheck is the deterministic half of the fuzz
// property: a fixed seeded sweep over random workload shapes, run on every
// `go test`, so engine equivalence never depends on having a fuzzing
// corpus around.
func TestEngineEquivalenceQuickCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-check sweep is not short")
	}
	// SplitMix64: deterministic stream, decoded exactly like fuzz inputs.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < 48; i++ {
		a, b, c := next(), next(), next()
		checkEngineEquivalence(t,
			uint8(a), uint8(a>>8), uint8(a>>16), uint8(a>>24),
			uint8(a>>32), uint8(a>>40), uint8(a>>48),
			int16(b), int16(b>>16), uint16(b>>32), uint16(b>>48),
			c)
	}
}
