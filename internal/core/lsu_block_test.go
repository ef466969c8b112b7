package core

import (
	"testing"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/dram"
	"apres/internal/kernel"
	"apres/internal/stats"
)

// silentPort is a MemPort that records requests and never answers; the
// tests below deliver fills by hand.
type silentPort struct{ reqs []arch.MemReq }

func (p *silentPort) Request(req arch.MemReq, _ int64) { p.reqs = append(p.reqs, req) }

// thrashKernel has 8 warps each loading 32 distinct lines per iteration: four
// times the 64 L1 MSHRs in the first iteration alone, KM's shape in small.
func thrashKernel() kernel.Kernel {
	return loadKernel(8, 3, kernel.Pattern{
		Base: 1 << 24, WarpStride: 32 * arch.LineSizeBytes,
		IterStride: 8 * 32 * arch.LineSizeBytes, LaneStride: arch.LineSizeBytes,
	})
}

func newSilentSM(t *testing.T, cfg config.Config) (*SM, *silentPort, *stats.Stats) {
	t.Helper()
	port, st := &silentPort{}, &stats.Stats{}
	sm, err := NewSM(0, cfg, thrashKernel(), port, st)
	if err != nil {
		t.Fatal(err)
	}
	return sm, port, st
}

// TestBlockedLSUSleepsUntilFill walks one SM into a full MSHR file against a
// memory port that never answers and pins each piece of the sleep: the SM
// goes idle with its LSU queue non-empty, no wakeup is due, skipped cycles
// are accounted as both issue stalls and L1 stalls, and one fill makes the
// very next Tick allocate the head operation.
func TestBlockedLSUSleepsUntilFill(t *testing.T) {
	cfg := config.Baseline()
	sm, port, st := newSilentSM(t, cfg)
	c := int64(0)
	for ; sm.Tick(c); c++ {
		if c > 1000 {
			t.Fatal("SM still busy after 1000 cycles with no memory response")
		}
	}
	if len(port.reqs) != cfg.L1MSHRs || sm.L1().MSHRCount() != cfg.L1MSHRs {
		t.Fatalf("idle with %d requests sent and %d MSHRs held, want %d of each", len(port.reqs), sm.L1().MSHRCount(), cfg.L1MSHRs)
	}
	if sm.lsuLen() == 0 || !sm.lsuBlocked {
		t.Fatalf("idle with %d LSU operations queued, blocked=%v: want a blocked, non-empty queue", sm.lsuLen(), sm.lsuBlocked)
	}
	// No completion is pending (every access missed) and no warp is waiting
	// on its pipeline delay alone: nothing but a fill can wake the SM.
	if wake := sm.NextWakeup(c); wake-c < 1<<40 {
		t.Fatalf("NextWakeup(%d) = %d with the LSU blocked and every warp waiting on memory", c, wake)
	}
	stalls, issueStalls := st.L1Stalls, st.IssueStallCycles
	sm.SkipIdle(c+1, c+500)
	if st.L1Stalls-stalls != 500 || st.IssueStallCycles-issueStalls != 500 {
		t.Fatalf("SkipIdle over 500 cycles moved L1Stalls by %d and IssueStallCycles by %d",
			st.L1Stalls-stalls, st.IssueStallCycles-issueStalls)
	}
	c += 501
	sm.HandleFill(dram.Response{Req: port.reqs[0], ReadyCycle: c}, c)
	stalls = st.L1Stalls
	sm.Tick(c)
	if len(port.reqs) != cfg.L1MSHRs+1 || st.L1Stalls != stalls {
		t.Fatalf("the Tick after a fill sent %d new requests and counted %d stalls, want 1 and 0",
			len(port.reqs)-cfg.L1MSHRs, st.L1Stalls-stalls)
	}
}

// TestBlockedLSUMatchesRetryEveryCycle runs the thrashing kernel to
// completion twice — ticking every cycle, and the way the engines do, with
// SkipIdle over every stretch the wake bound allows — answering requests in
// order on a fixed schedule, under configurations with and without a
// prefetcher probing the full file. Both runs must end with identical
// counters; and in the every-cycle run, on each cycle the LSU sleeps, the
// retry it leaves out is made by hand and must stall: the invariant the sleep
// rests on (line not resident, not in flight, file full — until a fill).
func TestBlockedLSUMatchesRetryEveryCycle(t *testing.T) {
	const fillEvery, firstFill, limit = 37, 700, 200_000
	for _, cc := range []struct {
		name string
		cfg  config.Config
	}{
		{"base", config.Baseline()},
		{"str", config.Baseline().WithPrefetcher(config.PrefSTR)},
		{"apres", config.APRES()},
	} {
		run := func(skip bool) (stats.Stats, int64) {
			sm, port, st := newSilentSM(t, cc.cfg)
			answered := 0
			wake := int64(0)
			var c, slept int64
			for c = 0; !sm.Done(); c++ {
				if c > limit {
					t.Fatalf("%s: not done after %d cycles", cc.name, limit)
				}
				filled := false
				if c >= firstFill && c%fillEvery == 0 && answered < len(port.reqs) {
					sm.HandleFill(dram.Response{Req: port.reqs[answered], ReadyCycle: c}, c)
					answered++
					filled = true
				}
				if skip && !filled && wake > c {
					// In one call, up to the wake bound or the next cycle a fill
					// could arrive on.
					nextFill := max(firstFill, c+fillEvery-c%fillEvery)
					end := min(wake, nextFill) - 1
					sm.SkipIdle(c, end)
					c = end
					continue
				}
				if !skip && sm.lsuBlocked {
					slept++
					if out := sm.l1.Access(sm.lsuQ[sm.lsuHead].req, c); out.Result != arch.ResultStall {
						t.Fatalf("%s: cycle %d: LSU asleep but its head would not stall (result %v)", cc.name, c, out.Result)
					}
				}
				wake = c + 1
				if !sm.Tick(c) {
					wake = sm.NextWakeup(c)
				}
			}
			if !skip && slept == 0 {
				t.Fatalf("%s: the LSU never slept", cc.name)
			}
			return *st, c
		}
		every, everyEnd := run(false)
		skipped, skippedEnd := run(true)
		if every != skipped || everyEnd != skippedEnd {
			t.Errorf("%s: ticking every cycle (done at %d) and skipping (done at %d) differ:\nevery:   %+v\nskipped: %+v",
				cc.name, everyEnd, skippedEnd, every, skipped)
		}
		if every.L1Stalls == 0 {
			t.Errorf("%s: no L1 stall recorded", cc.name)
		}
	}
}
