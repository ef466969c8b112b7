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
	// sum is Σscores and above the warps scoring over baseScore, kept by
	// setScore and decay so both and eligible know when there is nothing
	// to do.
	sum   int
	above arch.WarpMask
	// order holds every warp, sorted by eligible into (score descending,
	// warp ascending) order. That is a total order, so the result does not
	// depend on the order left by the previous call — which is nearly
	// sorted already and makes the insertion sort close to linear.
	order []arch.WarpID
	// fallback issues among eligible warps greedily-then-oldest.
	current arch.WarpID
	hasCur  bool

	// eligCache holds the eligibility mask between recomputations: every
	// eligRefresh cycles (decay moves scores, but slowly) and after a score
	// change that can move the cutoff. A VTA hit, a finish or a relaunch can
	// only do that when Σscores exceeds the budget before or after it, or
	// when the cached mask is a throttled one gone stale through decay;
	// while the mask is "everyone" and Σscores stays within the budget it
	// is already the answer, whatever its age. Decay never invalidates: a
	// throttled mask outlives the scores that produced it until the refresh.
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
		sum:       numWarps * baseScore,
		order:     make([]arch.WarpID, numWarps),
	}
	tags := make([]arch.LineAddr, numWarps*vtaEntries)
	for i := range s.scores {
		s.scores[i] = baseScore
		s.order[i] = arch.WarpID(i)
		s.vtas[i].entries = tags[i*vtaEntries : i*vtaEntries : (i+1)*vtaEntries]
	}
	return s
}

// Name implements Scheduler.
func (s *CCWS) Name() string { return "ccws" }

// minEligible keeps a few warps schedulable even under extreme lost
// locality so the SM is never reduced to a single warp's issue rate.
const minEligible = 6

// eligible returns the warps allowed to issue: warps are taken by score
// descending, lowest warp first among equals, and admitted while the
// cumulative score stays within the baseline budget (numWarps x baseScore);
// the first warp that does not fit ends the admission, once minEligible are
// in. With no lost locality all warps are admitted; concentrated lost
// locality squeezes low-score warps out.
func (s *CCWS) eligible() arch.WarpMask {
	budget := s.numWarps * s.baseScore
	if s.sum <= budget {
		// Every prefix of any order sums to at most Σscores, so no warp
		// can fail to fit.
		return arch.FirstWarps(s.numWarps)
	}
	for i := 1; i < len(s.order); i++ {
		w := s.order[i]
		j := i
		for ; j > 0; j-- {
			p := s.order[j-1]
			if s.scores[p] > s.scores[w] || s.scores[p] == s.scores[w] && p < w {
				break
			}
			s.order[j] = p
		}
		s.order[j] = w
	}
	var mask arch.WarpMask
	cum, floor := 0, min(minEligible, s.numWarps)
	for n, w := range s.order {
		if cum+s.scores[w] > budget && n >= floor {
			break
		}
		cum += s.scores[w]
		mask = mask.Set(w)
	}
	return mask
}

// setScore is the one place a score changes outside decay. It keeps sum and
// above, and drops the cached mask unless that mask is provably still right
// (see eligCache).
func (s *CCWS) setScore(w arch.WarpID, score int) {
	s.sum += score - s.scores[w]
	s.scores[w] = score
	if score > s.baseScore {
		s.above = s.above.Set(w)
	} else {
		s.above = s.above.Clear(w)
	}
	if s.sum > s.numWarps*s.baseScore || s.eligCache != arch.FirstWarps(s.numWarps) {
		s.eligValid = false
	}
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

// Pick implements Scheduler: the current warp while it may issue, else the
// lowest-numbered ready warp that may. Throttling blocks only memory
// instructions: an ineligible warp may still issue compute (Rogers et al.:
// the cutoff "prevents warps with the smallest scores from issuing loads").
// The view is asked about a throttled warp only when the answer decides the
// pick.
func (s *CCWS) Pick(ready arch.WarpMask, cycle int64) (arch.WarpID, bool) {
	s.decay(cycle)
	eligible := s.cachedEligible(cycle)
	mayIssue := func(w arch.WarpID) bool {
		return eligible.Has(w) || s.view != nil && !s.view.NextIsMem(w)
	}
	if s.hasCur && ready.Has(s.current) && mayIssue(s.current) {
		return s.current, true
	}
	for m := ready & arch.FirstWarps(s.numWarps); m != 0; m &= m - 1 {
		if w := m.Lowest(); mayIssue(w) {
			s.current, s.hasCur = w, true
			return w, true
		}
	}
	return 0, false
}

func (s *CCWS) decay(cycle int64) {
	if cycle <= s.lastDecay {
		return
	}
	s.decayAcc += cycle - s.lastDecay
	s.lastDecay = cycle
	if s.decayAcc < int64(s.decayRate) {
		return
	}
	points := int(s.decayAcc / int64(s.decayRate))
	s.decayAcc %= int64(s.decayRate)
	for m := s.above; m != 0; m &= m - 1 {
		w := m.Lowest()
		score := max(s.scores[w]-points, s.baseScore)
		s.sum += score - s.scores[w]
		s.scores[w] = score
		if score == s.baseScore {
			s.above = s.above.Clear(w)
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
		// Cap stickiness so one warp cannot monopolise the budget for
		// tens of thousands of cycles.
		s.setScore(w, min(s.scores[w]+s.baseScore, 8*s.baseScore))
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
		s.setScore(w, 0) // finished warps should not hold budget
	}
}

// OnWarpRelaunched implements Scheduler: the slot's history belongs to a
// finished warp.
func (s *CCWS) OnWarpRelaunched(w arch.WarpID) {
	if int(w) < s.numWarps {
		s.setScore(w, s.baseScore)
		s.vtas[w].entries = s.vtas[w].entries[:0]
	}
}

// Score exposes a warp's current lost-locality score (for tests).
func (s *CCWS) Score(w arch.WarpID) int { return s.scores[w] }
