package sched

import (
	"math/rand"
	"testing"

	"apres/internal/arch"
)

// Reference oracles for the policy paths that were rewritten for host speed:
// the code they replaced lives here, and the new code is held to it over
// random histories.

var ccwsWarpCounts = []int{1, 5, 6, 7, 48, 64}

// refCCWSEligible is the selection sort CCWS.eligible replaced: take the
// highest remaining score (lowest warp first among equals) until one does
// not fit the budget, never admitting fewer than minEligible.
func refCCWSEligible(numWarps, baseScore int, scores []int) arch.WarpMask {
	budget := numWarps * baseScore
	var taken arch.WarpMask
	var mask arch.WarpMask
	cum := 0
	for {
		best, bestScore := arch.WarpID(-1), -1
		for w := 0; w < numWarps; w++ {
			if taken.Has(arch.WarpID(w)) {
				continue
			}
			if scores[w] > bestScore {
				best, bestScore = arch.WarpID(w), scores[w]
			}
		}
		if best < 0 {
			break
		}
		taken = taken.Set(best)
		if cum+bestScore > budget && mask.Count() >= min(minEligible, numWarps) {
			break
		}
		cum += bestScore
		mask = mask.Set(best)
	}
	return mask
}

// refCCWS is the score, decay and eligibility-cache bookkeeping CCWS had
// before it kept Σscores: every score event drops the cached mask, every
// decay step visits every warp.
type refCCWS struct {
	numWarps, baseScore, decayRate int
	scores                         []int
	lastDecay, decayAcc            int64
	eligCache                      arch.WarpMask
	eligValid                      bool
	eligCycle                      int64
}

func newRefCCWS(numWarps, baseScore, decayRate int) *refCCWS {
	r := &refCCWS{numWarps: numWarps, baseScore: baseScore, decayRate: decayRate,
		scores: make([]int, numWarps)}
	for w := range r.scores {
		r.scores[w] = baseScore
	}
	return r
}

func (r *refCCWS) cachedEligible(cycle int64) arch.WarpMask {
	if !r.eligValid || cycle-r.eligCycle >= eligRefresh {
		r.eligCache = refCCWSEligible(r.numWarps, r.baseScore, r.scores)
		r.eligValid = true
		r.eligCycle = cycle
	}
	return r.eligCache
}

func (r *refCCWS) decay(cycle int64) {
	if cycle <= r.lastDecay {
		return
	}
	r.decayAcc += cycle - r.lastDecay
	r.lastDecay = cycle
	points := int(r.decayAcc / int64(r.decayRate))
	if points == 0 {
		return
	}
	r.decayAcc %= int64(r.decayRate)
	for w := range r.scores {
		if r.scores[w] > r.baseScore {
			r.scores[w] -= points
			if r.scores[w] < r.baseScore {
				r.scores[w] = r.baseScore
			}
		}
	}
}

func (r *refCCWS) vtaHit(w arch.WarpID) {
	r.scores[w] = min(r.scores[w]+r.baseScore, 8*r.baseScore)
	r.eligValid = false
}

func (r *refCCWS) finished(w arch.WarpID) {
	r.scores[w] = 0
	r.eligValid = false
}

func (r *refCCWS) relaunched(w arch.WarpID) {
	r.scores[w] = r.baseScore
	r.eligValid = false
}

// TestCCWSEligibleMatchesSelectionSort drives a CCWS and the reference
// through the same history of VTA hits, decay, finishes and relaunches, and
// compares scores, the mask Pick works from at every cycle, and a fresh
// eligible() against the selection sort. Phases alternate between hit storms
// (scores at the cap, the minEligible floor binding), quiet stretches (decay
// back to all-equal scores, the Σscores fast path) and churn.
func TestCCWSEligibleMatchesSelectionSort(t *testing.T) {
	for _, n := range ccwsWarpCounts {
		rng := rand.New(rand.NewSource(int64(n)))
		const base, rate = 100, 16
		s := NewCCWS(n, 4, base, rate, nil)
		ref := newRefCCWS(n, base, rate)
		all := arch.FirstWarps(n)
		throttled, floorBound, everyone := 0, 0, 0
		cycle := int64(0)
		for step := 0; step < 40000; step++ {
			phase := step / 2000 % 4
			// Quiet phases jump the clock so decay crosses many points at
			// once; storms tick cycle by cycle.
			switch {
			case phase == 1 && rng.Intn(4) == 0:
				cycle += int64(rng.Intn(300))
			case rng.Intn(3) > 0:
				cycle++
			}
			w := arch.WarpID(rng.Intn(n))
			hitOdds := []int{2, 40, 6, 3}[phase]
			switch {
			case rng.Intn(hitOdds) == 0:
				// A VTA hit: the line goes into w's VTA and w misses on it.
				line := arch.LineAddr(rng.Intn(3))
				s.OnLineEvicted(w, line)
				s.OnCacheResult(w, 0, line, false, NoGroup)
				ref.vtaHit(w)
			case rng.Intn(50) == 0:
				s.OnWarpFinished(w)
				ref.finished(w)
			case rng.Intn(25) == 0:
				s.OnWarpRelaunched(w)
				ref.relaunched(w)
			}
			s.decay(cycle)
			ref.decay(cycle)
			sum, above := 0, arch.WarpMask(0)
			for i := range ref.scores {
				if s.scores[i] != ref.scores[i] {
					t.Fatalf("n=%d step %d: score[%d] = %d, reference %d", n, step, i, s.scores[i], ref.scores[i])
				}
				sum += ref.scores[i]
				if ref.scores[i] > base {
					above = above.Set(arch.WarpID(i))
				}
			}
			if s.sum != sum || s.above != above {
				t.Fatalf("n=%d step %d: sum %d above %#x, scores say %d and %#x", n, step, s.sum, uint64(s.above), sum, uint64(above))
			}
			got, want := s.cachedEligible(cycle), ref.cachedEligible(cycle)
			if got != want {
				t.Fatalf("n=%d step %d cycle %d: cached mask %#x, reference %#x (scores %v)",
					n, step, cycle, uint64(got), uint64(want), ref.scores)
			}
			fresh := refCCWSEligible(n, base, ref.scores)
			if e := s.eligible(); e != fresh {
				t.Fatalf("n=%d step %d: eligible() = %#x, selection sort %#x (scores %v)",
					n, step, uint64(e), uint64(fresh), ref.scores)
			}
			switch {
			case fresh == all:
				everyone++
			case fresh.Count() == minEligible && n < 8*minEligible:
				// Only the floor keeps six warps in: the budget holds fewer
				// than six scores near the cap.
				floorBound++
				fallthrough
			default:
				throttled++
			}
		}
		if everyone == 0 || (n > minEligible && throttled == 0) || (n > minEligible && n < 8*minEligible && floorBound == 0) {
			t.Fatalf("n=%d: history never reached every regime (everyone %d, throttled %d, at the floor %d)",
				n, everyone, throttled, floorBound)
		}
	}
}

// TestCCWSEligibleEqualScores pins the tie-break on its own: with every
// score equal and above base, the lowest-numbered warps are the ones
// admitted.
func TestCCWSEligibleEqualScores(t *testing.T) {
	for _, n := range ccwsWarpCounts {
		s := NewCCWS(n, 4, 100, 16, nil)
		for w := 0; w < n; w++ {
			s.setScore(arch.WarpID(w), 300)
		}
		// Scramble the persistent order so the sort has work to do.
		rand.New(rand.NewSource(9)).Shuffle(n, func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		want := arch.FirstWarps(max(n/3, min(minEligible, n)))
		if got := s.eligible(); got != want || got != refCCWSEligible(n, 100, s.scores) {
			t.Fatalf("n=%d: eligible() = %#x, want the first warps %#x", n, uint64(got), uint64(want))
		}
	}
}

// refGroupPick is the group schedulers' old Pick: a closure call and a modulo
// per candidate warp, groups tried round-robin from the active one.
func refGroupPick(numWarps, numGroups int, groupOf func(arch.WarpID) int, active *int, rr []arch.WarpID, ready arch.WarpMask) (arch.WarpID, bool) {
	for gi := 0; gi < numGroups; gi++ {
		g := (*active + gi) % numGroups
		for i := 0; i < numWarps; i++ {
			w := (rr[g] + arch.WarpID(i)) % arch.WarpID(numWarps)
			if groupOf(w) == g && ready.Has(w) {
				rr[g] = (w + 1) % arch.WarpID(numWarps)
				*active = g
				return w, true
			}
		}
	}
	return 0, false
}

func TestGroupPickMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range refWarpCounts {
		type build struct {
			name    string
			s       *groupScheduler
			groupOf func(arch.WarpID) int
		}
		groups := min(8, n)
		for _, b := range []build{
			{"twolevel", &NewTwoLevel(n, 8).groupScheduler, func(w arch.WarpID) int { return int(w) / 8 }},
			{"pa", &NewPA(n, 8).groupScheduler, func(w arch.WarpID) int { return int(w) % groups }},
		} {
			numGroups := len(b.s.groups)
			refRR := make([]arch.WarpID, numGroups)
			for pos := 0; pos < n; pos++ {
				for active := 0; active < numGroups; active++ {
					for _, ready := range randomMasks(rng, n) {
						// The pointer under test sits in the active group;
						// the others get random positions.
						for g := range refRR {
							refRR[g] = arch.WarpID(rng.Intn(n))
						}
						refRR[active] = arch.WarpID(pos)
						copy(b.s.rr, refRR)
						b.s.active = active
						refActive := active
						for step := 0; step < 3; step++ {
							w, ok := b.s.Pick(ready, 0)
							rw, rok := refGroupPick(n, numGroups, b.groupOf, &refActive, refRR, ready)
							if w != rw || ok != rok || b.s.active != refActive {
								t.Fatalf("%s n=%d pos=%d active=%d ready=%#x step %d: Pick = (%d, %v) active %d, loop = (%d, %v) active %d",
									b.name, n, pos, active, uint64(ready), step, w, ok, b.s.active, rw, rok, refActive)
							}
							for g := range refRR {
								if b.s.rr[g] != refRR[g] {
									t.Fatalf("%s n=%d pos=%d ready=%#x: rr[%d] = %d, loop %d", b.name, n, pos, uint64(ready), g, b.s.rr[g], refRR[g])
								}
							}
						}
					}
				}
			}
		}
	}
}

// refMASCARSaturated is MASCAR's old saturated branch: two loops over warps.
func refMASCARSaturated(numWarps int, view View, owner *arch.WarpID, hasOwner *bool, ready arch.WarpMask) (arch.WarpID, bool) {
	for w := arch.WarpID(0); w < arch.WarpID(numWarps); w++ {
		if ready.Has(w) && !view.NextIsMem(w) {
			return w, true
		}
	}
	if *hasOwner && ready.Has(*owner) {
		return *owner, true
	}
	for w := arch.WarpID(0); w < arch.WarpID(numWarps); w++ {
		if ready.Has(w) {
			*owner, *hasOwner = w, true
			return w, true
		}
	}
	return 0, false
}

func TestMASCARSaturatedPickMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range refWarpCounts {
		for _, memOdds := range []int{1, 2, 10} { // all memory, half, mostly compute
			view := &fakeView{saturated: true, memNext: map[arch.WarpID]bool{}}
			for w := arch.WarpID(0); w < 64; w++ {
				view.memNext[w] = rng.Intn(memOdds) == 0
			}
			for pos := -1; pos < n; pos++ { // -1: no owner yet
				for _, ready := range randomMasks(rng, n) {
					s := NewMASCAR(n, view)
					owner, has := arch.WarpID(0), false
					if pos >= 0 {
						s.owner, s.hasOwner = arch.WarpID(pos), true
						owner, has = arch.WarpID(pos), true
					}
					w, ok := s.Pick(ready, 0)
					rw, rok := refMASCARSaturated(n, view, &owner, &has, ready)
					if w != rw || ok != rok || s.hasOwner != has || (has && s.owner != owner) {
						t.Fatalf("n=%d owner=%d ready=%#x: Pick = (%d, %v) owner (%d, %v), loop = (%d, %v) owner (%d, %v)",
							n, pos, uint64(ready), w, ok, s.owner, s.hasOwner, rw, rok, owner, has)
					}
				}
			}
		}
	}
}

// TestLAWSGroupMatchesLLTScan holds OnLoadIssued's per-PC warp sets to the
// scan over the LLT they replaced, through loads and relaunches over a few
// PCs (so sets empty out and their slots are reused) and many (so the set
// list grows).
func TestLAWSGroupMatchesLLTScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range refWarpCounts {
		for _, pcs := range []int{2, 5, 200} {
			s := NewLAWS(n, 3, true)
			for step := 0; step < 5000; step++ {
				w := arch.WarpID(rng.Intn(n))
				if rng.Intn(10) == 0 {
					s.OnWarpRelaunched(w)
					continue
				}
				want := arch.Bit(w)
				for other := 0; other < n; other++ {
					if s.LLPC(arch.WarpID(other)) == s.LLPC(w) {
						want = want.Set(arch.WarpID(other))
					}
				}
				pc := arch.PC(4 * rng.Intn(pcs)) // PC 0 is noLLPC
				slot := s.wgtRR
				s.OnLoadIssued(w, pc)
				if got := s.wgt[slot].mask; got != want {
					t.Fatalf("n=%d step %d: group %#x, LLT scan %#x", n, step, uint64(got), uint64(want))
				}
				if s.LLPC(w) != pc {
					t.Fatalf("n=%d step %d: LLPC = %#x after a load at %#x", n, step, s.LLPC(w), pc)
				}
			}
			if len(s.sameLLPC) > n+1 {
				t.Fatalf("n=%d: %d PC sets for %d warps; empty ones are not being reused", n, len(s.sameLLPC), n)
			}
		}
	}
}

// maskView answers NextIsMem from a bit mask, as the SM does (fakeView's map
// lookup would be most of what the benchmark measures).
type maskView arch.WarpMask

func (v maskView) MemSaturated() bool           { return false }
func (v maskView) NextIsMem(w arch.WarpID) bool { return arch.WarpMask(v).Has(w) }

// BenchmarkCCWSPickThrottled is CCWS.Pick with its scores moving: a VTA hit
// every eighth cycle keeps a handful of warps above base and Σscores over the
// budget, decay pulls them back, so the eligibility mask is recomputed through
// the ordered path again and again. (With every score at base, Pick is a
// cached-mask lookup and shows none of this.)
func BenchmarkCCWSPickThrottled(b *testing.B) {
	const n = 48
	rng := rand.New(rand.NewSource(1))
	s := NewCCWS(n, 16, 100, 16, maskView(rng.Uint64()))
	ready := make([]arch.WarpMask, 256)
	for i := range ready {
		ready[i] = arch.WarpMask(rng.Uint64()) & arch.FirstWarps(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			w := arch.WarpID(i / 8 % 12) // twelve warps take the hits in turn
			s.OnLineEvicted(w, 7)
			s.OnCacheResult(w, 0, 7, false, NoGroup)
		}
		s.Pick(ready[i%len(ready)], int64(i))
	}
	b.StopTimer()
	if s.sum <= n*100 {
		b.Fatalf("Σscores = %d ended within the budget %d: the benchmark did not stay throttled", s.sum, n*100)
	}
}

// BenchmarkGroupPick is the two-level and prefetch-aware Pick over sparse
// ready sets, where the active group often has no ready warp and the search
// moves on through the groups.
func BenchmarkGroupPick(b *testing.B) {
	const n = 48
	rng := rand.New(rand.NewSource(2))
	ready := make([]arch.WarpMask, 256)
	for i := range ready {
		ready[i] = arch.WarpMask(rng.Uint64()&rng.Uint64()&rng.Uint64()) & arch.FirstWarps(n)
	}
	for _, s := range []Scheduler{NewTwoLevel(n, 8), NewPA(n, 8)} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Pick(ready[i%len(ready)], int64(i))
			}
		})
	}
}
