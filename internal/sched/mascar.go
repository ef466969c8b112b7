// MASCAR — Memory Aware Scheduling and Cache Access Re-execution
// (Sethia et al., HPCA 2015), scheduling half.
//
// When the memory subsystem saturates (MSHR occupancy above a threshold),
// MASCAR enters memory-phase mode: exactly one "owner" warp may issue
// memory instructions, while the remaining warps may only issue compute, so
// the owner's requests complete quickly instead of interleaving with
// everyone else's. Outside saturation it behaves like GTO.
//
// The cache re-execution queue of the original proposal is not modelled;
// the paper under reproduction evaluates MASCAR only as a warp scheduler
// combined with standalone prefetchers (Figures 3 and 4).
package sched

import "apres/internal/arch"

// MASCAR implements the memory-aware scheduling policy.
type MASCAR struct {
	Base
	numWarps int
	view     View
	gto      *GTO
	owner    arch.WarpID
	hasOwner bool
}

// NewMASCAR builds a MASCAR scheduler. view must provide memory saturation
// and next-instruction kind.
func NewMASCAR(numWarps int, view View) *MASCAR {
	return &MASCAR{numWarps: numWarps, view: view, gto: NewGTO(numWarps)}
}

// Name implements Scheduler.
func (s *MASCAR) Name() string { return "mascar" }

// Pick implements Scheduler.
func (s *MASCAR) Pick(ready arch.WarpMask, cycle int64) (arch.WarpID, bool) {
	if s.view == nil || !s.view.MemSaturated() {
		s.hasOwner = false
		return s.gto.Pick(ready, cycle)
	}
	// Saturated: compute warps first (they make progress without adding
	// memory pressure) ...
	ready &= arch.FirstWarps(s.numWarps)
	for m := ready; m != 0; m &= m - 1 {
		if w := m.Lowest(); !s.view.NextIsMem(w) {
			return w, true
		}
	}
	// ... and only the owner may issue memory.
	if s.hasOwner && ready.Has(s.owner) {
		return s.owner, true
	}
	if ready == 0 {
		return 0, false
	}
	s.owner, s.hasOwner = ready.Lowest(), true
	return s.owner, true
}

// OnWarpFinished implements Scheduler.
func (s *MASCAR) OnWarpFinished(w arch.WarpID) {
	if s.hasOwner && s.owner == w {
		s.hasOwner = false
	}
	s.gto.OnWarpFinished(w)
}
