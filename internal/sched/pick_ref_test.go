package sched

import (
	"math/rand"
	"slices"
	"testing"

	"apres/internal/arch"
)

// The bit-scan Pick implementations are held to the straight loops they
// replaced: one candidate warp per iteration, a modulo for the rotating
// pointer, ready.Has for the test. Ready masks are random over all 64 bits,
// so warps at or above numWarps (which the loops never look at) are in play.

var refWarpCounts = []int{1, 7, 48, 63, 64}

// randomMasks returns a spread of ready sets: empty, full, single warps at
// the edges, sparse and dense random ones.
func randomMasks(rng *rand.Rand, numWarps int) []arch.WarpMask {
	ms := []arch.WarpMask{0, ^arch.WarpMask(0), 1, arch.Bit(arch.WarpID(numWarps - 1)), arch.Bit(63)}
	if numWarps < 64 {
		ms = append(ms, arch.Bit(arch.WarpID(numWarps)), ^arch.FirstWarps(numWarps))
	}
	for i := 0; i < 40; i++ {
		m := arch.WarpMask(rng.Uint64())
		switch i % 3 {
		case 1:
			m &= arch.WarpMask(rng.Uint64()) & arch.WarpMask(rng.Uint64()) // sparse
		case 2:
			m |= arch.WarpMask(rng.Uint64()) // dense
		}
		ms = append(ms, m)
	}
	return ms
}

func refLRRPick(numWarps int, next *arch.WarpID, ready arch.WarpMask) (arch.WarpID, bool) {
	for i := 0; i < numWarps; i++ {
		w := (*next + arch.WarpID(i)) % arch.WarpID(numWarps)
		if ready.Has(w) {
			*next = (w + 1) % arch.WarpID(numWarps)
			return w, true
		}
	}
	return 0, false
}

func TestLRRPickMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range refWarpCounts {
		for pos := 0; pos < n; pos++ {
			for _, ready := range randomMasks(rng, n) {
				s := NewLRR(n)
				s.next = arch.WarpID(pos)
				refNext := arch.WarpID(pos)
				// A few picks in a row from the same set walks the pointer on.
				for step := 0; step < 3; step++ {
					w, ok := s.Pick(ready, 0)
					rw, rok := refLRRPick(n, &refNext, ready)
					if w != rw || ok != rok || s.next != refNext {
						t.Fatalf("n=%d pos=%d ready=%#x step %d: Pick = (%d, %v) next %d, loop = (%d, %v) next %d",
							n, pos, uint64(ready), step, w, ok, s.next, rw, rok, refNext)
					}
				}
			}
		}
	}
}

// refGreedyPick is the shared tail of the old GTO and CCWS Pick: the current
// warp while it stays a candidate, else the lowest-numbered candidate.
func refGreedyPick(numWarps int, current *arch.WarpID, hasCur *bool, cand arch.WarpMask) (arch.WarpID, bool) {
	if *hasCur && cand.Has(*current) {
		return *current, true
	}
	for w := arch.WarpID(0); w < arch.WarpID(numWarps); w++ {
		if cand.Has(w) {
			*current, *hasCur = w, true
			return w, true
		}
	}
	return 0, false
}

func TestGTOPickMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range refWarpCounts {
		for pos := -1; pos < n; pos++ { // -1: no current warp yet
			for _, ready := range randomMasks(rng, n) {
				s := NewGTO(n)
				cur, has := arch.WarpID(0), false
				if pos >= 0 {
					s.current, s.hasCur = arch.WarpID(pos), true
					cur, has = arch.WarpID(pos), true
				}
				w, ok := s.Pick(ready, 0)
				rw, rok := refGreedyPick(n, &cur, &has, ready)
				if w != rw || ok != rok || s.current != cur || s.hasCur != has {
					t.Fatalf("n=%d current=%d ready=%#x: Pick = (%d, %v), loop = (%d, %v)",
						n, pos, uint64(ready), w, ok, rw, rok)
				}
			}
		}
	}
}

// refCCWSPick is the old CCWS.Pick: per-warp loops where the new one scans
// bits. It runs on its own CCWS so both evolve through the same history.
func refCCWSPick(s *CCWS, ready arch.WarpMask, cycle int64) (arch.WarpID, bool) {
	s.decay(cycle)
	cand := ready & s.cachedEligible(cycle)
	if s.view != nil {
		for w := arch.WarpID(0); w < 64; w++ {
			if (ready &^ cand).Has(w) && !s.view.NextIsMem(w) {
				cand = cand.Set(w)
			}
		}
	}
	if cand == 0 {
		return 0, false
	}
	return refGreedyPick(s.numWarps, &s.current, &s.hasCur, cand)
}

func TestCCWSPickMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range refWarpCounts {
		view := &fakeView{memNext: map[arch.WarpID]bool{}}
		for w := arch.WarpID(0); w < 64; w++ {
			view.memNext[w] = rng.Intn(3) > 0
		}
		got := NewCCWS(n, 4, 100, 16, view)
		ref := NewCCWS(n, 4, 100, 16, view)
		masks := randomMasks(rng, n)
		throttled := 0
		for cycle := int64(0); cycle < 3000; cycle++ {
			// Lost-locality events throttle some warps out of the eligible
			// set, so the compute-only admission path and the fallback order
			// both get exercised; finishing the current warp moves the greedy
			// pointer around.
			w := arch.WarpID(rng.Intn(n))
			line := arch.LineAddr(rng.Intn(6))
			switch rng.Intn(6) {
			case 0, 1:
				got.OnLineEvicted(w, line)
				ref.OnLineEvicted(w, line)
			case 2, 3:
				got.OnCacheResult(w, 0, line, false, NoGroup)
				ref.OnCacheResult(w, 0, line, false, NoGroup)
			case 4:
				if rng.Intn(20) == 0 {
					got.OnWarpFinished(w)
					ref.OnWarpFinished(w)
				}
			}
			ready := masks[rng.Intn(len(masks))]
			gw, gok := got.Pick(ready, cycle)
			rw, rok := refCCWSPick(ref, ready, cycle)
			if gw != rw || gok != rok || got.current != ref.current || got.hasCur != ref.hasCur {
				t.Fatalf("n=%d cycle %d ready=%#x: Pick = (%d, %v), loop = (%d, %v)",
					n, cycle, uint64(ready), gw, gok, rw, rok)
			}
			if ready&arch.FirstWarps(n)&^ref.eligCache != 0 {
				throttled++
			}
		}
		if n > minEligible && throttled == 0 {
			t.Fatalf("n=%d: no pick ever saw a throttled ready warp", n)
		}
	}
}

// refPartition is the old LAWS.partition: two fresh slices per call.
func refPartition(queue []arch.WarpID, mask arch.WarpMask, membersFirst bool) []arch.WarpID {
	var members, rest []arch.WarpID
	for _, w := range queue {
		if mask.Has(w) {
			members = append(members, w)
		} else {
			rest = append(rest, w)
		}
	}
	if membersFirst {
		return append(members, rest...)
	}
	return append(rest, members...)
}

func TestLAWSQueueAndPickMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range refWarpCounts {
		s := NewLAWS(n, 3, true)
		ref := slices.Clone(s.Queue())
		masks := randomMasks(rng, n)
		for step := 0; step < 2000; step++ {
			group := masks[rng.Intn(len(masks))]
			head := rng.Intn(2) == 0
			if head {
				s.moveToHead(group)
			} else {
				s.moveToTail(group)
			}
			ref = refPartition(ref, group, head)
			if !slices.Equal(s.Queue(), ref) {
				t.Fatalf("n=%d step %d group=%#x head=%v: queue %v, want %v", n, step, uint64(group), head, s.Queue(), ref)
			}
			ready := masks[rng.Intn(len(masks))]
			w, ok := s.Pick(ready, 0)
			rw, rok := arch.WarpID(0), false
			for _, q := range ref {
				if ready.Has(q) {
					rw, rok = q, true
					break
				}
			}
			if w != rw || ok != rok {
				t.Fatalf("n=%d step %d ready=%#x: Pick = (%d, %v), loop = (%d, %v)", n, step, uint64(ready), w, ok, rw, rok)
			}
		}
		if a := testing.AllocsPerRun(10, func() { s.moveToHead(masks[7]); s.moveToTail(masks[9]) }); a != 0 {
			t.Fatalf("n=%d: regrouping allocated %v times", n, a)
		}
	}
}
