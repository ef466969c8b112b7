// Package sched implements the warp schedulers evaluated in the APRES paper:
// the LRR baseline, GTO, two-level scheduling, CCWS, MASCAR, the
// prefetch-aware (PA) scheduler, and the paper's contribution LAWS
// (Locality Aware Warp Scheduling).
//
// The SM core drives a scheduler through two channels: Pick, called each
// issue cycle with the set of ready warps, and the On* event methods, which
// feed back load issue, L1 access results, and evictions. LAWS additionally
// exposes group information so the core can couple it to the SAP prefetcher
// (the APRES configuration).
package sched

import (
	"fmt"

	"apres/internal/arch"
	"apres/internal/config"
)

// View gives schedulers read access to SM state. MASCAR uses memory
// subsystem saturation and the kind of each warp's next instruction.
type View interface {
	// MemSaturated reports whether the memory subsystem is saturated
	// (e.g. L1 MSHR occupancy above the MASCAR threshold).
	MemSaturated() bool
	// NextIsMem reports whether warp w's next instruction accesses
	// global memory.
	NextIsMem(w arch.WarpID) bool
}

// NoGroup is returned by OnLoadIssued when the scheduler does not track
// warp groups.
const NoGroup = -1

// Scheduler selects which ready warp issues each cycle and consumes
// feedback events from the SM.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// Pick returns the warp to issue from the ready set, or false if the
	// scheduler refuses to issue (e.g. CCWS throttling excludes all
	// currently ready warps).
	Pick(ready arch.WarpMask, cycle int64) (arch.WarpID, bool)
	// OnLoadIssued tells the scheduler warp w issued a global load at
	// pc. LAWS forms a warp group and returns its WGT entry index;
	// other schedulers return NoGroup.
	OnLoadIssued(w arch.WarpID, pc arch.PC) int
	// OnCacheResult reports the L1 outcome of the lead line of a demand
	// load. group is the value OnLoadIssued returned for that load.
	// LAWS returns the warp group it acted on (for SAP coupling);
	// other schedulers return 0.
	OnCacheResult(w arch.WarpID, pc arch.PC, line arch.LineAddr, hit bool, group int) arch.WarpMask
	// OnLineEvicted reports that a line brought in by owner was evicted
	// (CCWS victim tag arrays).
	OnLineEvicted(owner arch.WarpID, line arch.LineAddr)
	// PrioritizeWarps moves the given warps to the front of the
	// scheduling order (LAWS: prefetch-target warps from SAP).
	PrioritizeWarps(mask arch.WarpMask)
	// OnWarpFinished reports warp completion.
	OnWarpFinished(w arch.WarpID)
	// OnWarpRelaunched reports that a fresh logical warp now occupies
	// hardware slot w (CTA refill); per-slot history must reset.
	OnWarpRelaunched(w arch.WarpID)
}

// Base provides no-op event handling for schedulers that only implement
// Pick.
type Base struct{}

// OnLoadIssued implements Scheduler.
func (Base) OnLoadIssued(arch.WarpID, arch.PC) int { return NoGroup }

// OnCacheResult implements Scheduler.
func (Base) OnCacheResult(arch.WarpID, arch.PC, arch.LineAddr, bool, int) arch.WarpMask {
	return 0
}

// OnLineEvicted implements Scheduler.
func (Base) OnLineEvicted(arch.WarpID, arch.LineAddr) {}

// PrioritizeWarps implements Scheduler.
func (Base) PrioritizeWarps(arch.WarpMask) {}

// OnWarpFinished implements Scheduler.
func (Base) OnWarpFinished(arch.WarpID) {}

// OnWarpRelaunched implements Scheduler.
func (Base) OnWarpRelaunched(arch.WarpID) {}

// New builds the scheduler selected by the configuration. view may be nil
// for policies that do not need SM state.
func New(cfg config.Config, numWarps int, view View) (Scheduler, error) {
	switch cfg.Scheduler {
	case config.SchedLRR:
		return NewLRR(numWarps), nil
	case config.SchedGTO:
		return NewGTO(numWarps), nil
	case config.SchedTwoLevel:
		return NewTwoLevel(numWarps, 8), nil
	case config.SchedCCWS:
		return NewCCWS(numWarps, cfg.CCWSVictimTagEntries, cfg.CCWSBaseScore, cfg.CCWSScoreDecay, view), nil
	case config.SchedMASCAR:
		return NewMASCAR(numWarps, view), nil
	case config.SchedPA:
		return NewPA(numWarps, 8), nil
	case config.SchedLAWS:
		return NewLAWS(numWarps, cfg.LAWSWGTEntries, cfg.LAWSTailDemotion), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q", cfg.Scheduler)
	}
}

// LRR is the loose round-robin baseline: equal priority, sequential search
// from a rotating pointer.
type LRR struct {
	Base
	numWarps int
	next     arch.WarpID
}

// NewLRR builds an LRR scheduler over numWarps warps.
func NewLRR(numWarps int) *LRR { return &LRR{numWarps: numWarps} }

// Name implements Scheduler.
func (s *LRR) Name() string { return "lrr" }

// Pick implements Scheduler.
func (s *LRR) Pick(ready arch.WarpMask, _ int64) (arch.WarpID, bool) {
	ready &= arch.FirstWarps(s.numWarps)
	if ready == 0 {
		return 0, false
	}
	return pickRotating(ready, &s.next, s.numWarps), true
}

// pickRotating returns the first warp of the non-empty set m in the search
// order next, next+1, ..., numWarps-1, 0, ..., next-1 — the lowest member at
// or above the pointer, else the lowest of all — and moves the pointer just
// past it.
func pickRotating(m arch.WarpMask, next *arch.WarpID, numWarps int) arch.WarpID {
	from := m &^ arch.FirstWarps(int(*next))
	if from == 0 {
		from = m
	}
	w := from.Lowest()
	*next = w + 1
	if int(*next) == numWarps {
		*next = 0
	}
	return w
}

// GTO is greedy-then-oldest: keep issuing the same warp while it is ready,
// else fall back to the oldest (lowest-ID) ready warp.
type GTO struct {
	Base
	numWarps int
	current  arch.WarpID
	hasCur   bool
}

// NewGTO builds a GTO scheduler over numWarps warps.
func NewGTO(numWarps int) *GTO { return &GTO{numWarps: numWarps} }

// Name implements Scheduler.
func (s *GTO) Name() string { return "gto" }

// Pick implements Scheduler.
func (s *GTO) Pick(ready arch.WarpMask, _ int64) (arch.WarpID, bool) {
	if s.hasCur && ready.Has(s.current) {
		return s.current, true
	}
	ready &= arch.FirstWarps(s.numWarps)
	if ready == 0 {
		return 0, false
	}
	s.current, s.hasCur = ready.Lowest(), true
	return s.current, true
}

// OnWarpFinished implements Scheduler.
func (s *GTO) OnWarpFinished(w arch.WarpID) {
	if s.hasCur && s.current == w {
		s.hasCur = false
	}
}
