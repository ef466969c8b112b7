// CCWS — Cache-Conscious Wavefront Scheduling (Rogers et al., MICRO 2012).
//
// Each warp owns a small victim tag array (VTA). When a warp misses on a
// line whose tag sits in its own VTA, it lost intra-warp locality to cache
// contention, and its lost-locality score rises. Scheduling excludes the
// lowest-scoring warps whenever the score mass exceeds the baseline budget,
// effectively throttling the active warp count until contention subsides.
// Scores decay every cycle toward the base score.
package sched

import "apres/internal/arch"

// vta is one warp's victim tag array: an LRU list of evicted line tags. The
// slice's capacity is the array's size; NewCCWS carves every warp's array
// out of one allocation, so inserting never allocates.
type vta struct {
	entries []arch.LineAddr
}

func (v *vta) insert(l arch.LineAddr) {
	// Move-to-front if present; else prepend and trim.
	for i, e := range v.entries {
		if e == l {
			copy(v.entries[1:i+1], v.entries[:i])
			v.entries[0] = l
			return
		}
	}
	if len(v.entries) < cap(v.entries) {
		v.entries = append(v.entries, 0)
	}
	copy(v.entries[1:], v.entries)
	v.entries[0] = l
}

// hitAndRemove reports whether l is present, removing it (a VTA hit is
// consumed).
func (v *vta) hitAndRemove(l arch.LineAddr) bool {
	for i, e := range v.entries {
		if e == l {
			v.entries = append(v.entries[:i], v.entries[i+1:]...)
			return true
		}
	}
	return false
}

// CCWS throttles warps by lost-locality scoring.
type CCWS struct {
	Base
	view      View
	numWarps  int
	baseScore int
	decayRate int // cycles per point of score decay
	scores    []int
	vtas      []vta
	lastDecay int64
	decayAcc  int64
	// fallback issues among eligible warps greedily-then-oldest.
	current arch.WarpID
	hasCur  bool

	// eligCache avoids recomputing the eligibility cutoff every cycle;
	// it is refreshed on score changes and every eligRefresh cycles
	// (scores only drift slowly through decay).
	eligCache arch.WarpMask
	eligValid bool
	eligCycle int64
	// owner of each L1 line is tracked by the SM; CCWS only sees
	// eviction events and access results.
}

// NewCCWS builds a CCWS scheduler. vtaEntries is the per-warp victim tag
// array capacity, baseScore the per-warp baseline locality score, and
// decayRate the number of cycles per point of score decay.
func NewCCWS(numWarps, vtaEntries, baseScore, decayRate int, view View) *CCWS {
	if vtaEntries <= 0 {
		vtaEntries = 16
	}
	if baseScore <= 0 {
		baseScore = 100
	}
	if decayRate <= 0 {
		decayRate = 16
	}
	s := &CCWS{
		view:      view,
		numWarps:  numWarps,
		baseScore: baseScore,
		decayRate: decayRate,
		scores:    make([]int, numWarps),
		vtas:      make([]vta, numWarps),
	}
	tags := make([]arch.LineAddr, numWarps*vtaEntries)
	for i := range s.scores {
		s.scores[i] = baseScore
		s.vtas[i].entries = tags[i*vtaEntries : i*vtaEntries : (i+1)*vtaEntries]
	}
	return s
}

// Name implements Scheduler.
func (s *CCWS) Name() string { return "ccws" }

// minEligible keeps a few warps schedulable even under extreme lost
// locality so the SM is never reduced to a single warp's issue rate.
const minEligible = 6

// eligible returns the warps allowed to issue: warps are sorted by score
// descending and admitted while the cumulative score stays within the
// baseline budget (numWarps x baseScore). With no lost locality all warps
// are admitted; concentrated lost locality squeezes low-score warps out.
func (s *CCWS) eligible() arch.WarpMask {
	budget := s.numWarps * s.baseScore
	// Selection sort over at most 64 warps; cheap and allocation-free.
	var taken arch.WarpMask
	var mask arch.WarpMask
	cum := 0
	for {
		best, bestScore := arch.WarpID(-1), -1
		for w := 0; w < s.numWarps; w++ {
			if taken.Has(arch.WarpID(w)) {
				continue
			}
			if s.scores[w] > bestScore {
				best, bestScore = arch.WarpID(w), s.scores[w]
			}
		}
		if best < 0 {
			break
		}
		taken = taken.Set(best)
		if cum+bestScore > budget && mask.Count() >= min(minEligible, s.numWarps) {
			break
		}
		cum += bestScore
		mask = mask.Set(best)
	}
	return mask
}

// eligRefresh is the eligibility cache lifetime in cycles.
const eligRefresh = 64

func (s *CCWS) cachedEligible(cycle int64) arch.WarpMask {
	if !s.eligValid || cycle-s.eligCycle >= eligRefresh {
		s.eligCache = s.eligible()
		s.eligValid = true
		s.eligCycle = cycle
	}
	return s.eligCache
}

// Pick implements Scheduler. Throttling blocks only memory instructions:
// an ineligible warp may still issue compute (Rogers et al.: the cutoff
// "prevents warps with the smallest scores from issuing loads").
func (s *CCWS) Pick(ready arch.WarpMask, cycle int64) (arch.WarpID, bool) {
	s.decay(cycle)
	cand := ready & s.cachedEligible(cycle)
	if s.view != nil {
		for m := ready &^ cand; m != 0; m &= m - 1 {
			if w := m.Lowest(); !s.view.NextIsMem(w) {
				cand = cand.Set(w)
			}
		}
	}
	if cand == 0 {
		return 0, false
	}
	if s.hasCur && cand.Has(s.current) {
		return s.current, true
	}
	cand &= arch.FirstWarps(s.numWarps)
	if cand == 0 {
		return 0, false
	}
	s.current, s.hasCur = cand.Lowest(), true
	return s.current, true
}

func (s *CCWS) decay(cycle int64) {
	if cycle <= s.lastDecay {
		return
	}
	s.decayAcc += cycle - s.lastDecay
	s.lastDecay = cycle
	points := int(s.decayAcc / int64(s.decayRate))
	if points == 0 {
		return
	}
	s.decayAcc %= int64(s.decayRate)
	for w := range s.scores {
		if s.scores[w] > s.baseScore {
			s.scores[w] -= points
			if s.scores[w] < s.baseScore {
				s.scores[w] = s.baseScore
			}
		}
	}
}

// OnCacheResult implements Scheduler: a miss that hits the warp's own VTA
// raises its lost-locality score.
func (s *CCWS) OnCacheResult(w arch.WarpID, _ arch.PC, line arch.LineAddr, hit bool, _ int) arch.WarpMask {
	if hit || int(w) >= s.numWarps {
		return 0
	}
	if s.vtas[w].hitAndRemove(line) {
		s.scores[w] += s.baseScore
		// Cap stickiness so one warp cannot monopolise the budget for
		// tens of thousands of cycles.
		if max := 8 * s.baseScore; s.scores[w] > max {
			s.scores[w] = max
		}
		s.eligValid = false
	}
	return 0
}

// OnLineEvicted implements Scheduler: the evicted tag enters the owner
// warp's VTA.
func (s *CCWS) OnLineEvicted(owner arch.WarpID, line arch.LineAddr) {
	if owner >= 0 && int(owner) < s.numWarps {
		s.vtas[owner].insert(line)
	}
}

// OnWarpFinished implements Scheduler.
func (s *CCWS) OnWarpFinished(w arch.WarpID) {
	if s.hasCur && s.current == w {
		s.hasCur = false
	}
	if int(w) < s.numWarps {
		s.scores[w] = 0 // finished warps should not hold budget
		s.eligValid = false
	}
}

// OnWarpRelaunched implements Scheduler: the slot's history belongs to a
// finished warp.
func (s *CCWS) OnWarpRelaunched(w arch.WarpID) {
	if int(w) < s.numWarps {
		s.scores[w] = s.baseScore
		s.vtas[w].entries = s.vtas[w].entries[:0]
		s.eligValid = false
	}
}

// Score exposes a warp's current lost-locality score (for tests).
func (s *CCWS) Score(w arch.WarpID) int { return s.scores[w] }
