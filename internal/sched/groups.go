// Two-level and prefetch-aware (PA) group schedulers. Both divide warps
// into fetch groups and issue from one active group at a time, switching
// when the active group has no ready warp (Narasiman et al., MICRO 2011).
// They differ only in group membership: two-level groups CONSECUTIVE warp
// IDs; the prefetch-aware scheduler of Jog et al. (ISCA 2013) assigns
// NON-consecutive warps to a group so one group's accesses can prefetch for
// warps of the next group.
package sched

import "apres/internal/arch"

// groupScheduler is the shared machinery of TwoLevel and PA.
type groupScheduler struct {
	Base
	name     string
	numWarps int
	// groups holds each group's member warps.
	groups []arch.WarpMask
	active int
	// rr is a per-group round-robin pointer.
	rr []arch.WarpID
}

// newGroupScheduler builds the scheduler whose groupOf maps a warp to its
// group.
func newGroupScheduler(name string, numWarps, numGroups int, groupOf func(w int) int) groupScheduler {
	s := groupScheduler{
		name:     name,
		numWarps: numWarps,
		groups:   make([]arch.WarpMask, numGroups),
		rr:       make([]arch.WarpID, numGroups),
	}
	for w := 0; w < numWarps; w++ {
		g := groupOf(w)
		s.groups[g] = s.groups[g].Set(arch.WarpID(w))
	}
	return s
}

// Name implements Scheduler.
func (s *groupScheduler) Name() string { return s.name }

// Pick implements Scheduler: the active group if it has a ready warp, else
// the next group round-robin that has one; within the group, round-robin
// from the group's pointer.
func (s *groupScheduler) Pick(ready arch.WarpMask, _ int64) (arch.WarpID, bool) {
	g := s.active
	for range s.groups {
		if m := ready & s.groups[g]; m != 0 {
			s.active = g
			return pickRotating(m, &s.rr[g], s.numWarps), true
		}
		if g++; g == len(s.groups) {
			g = 0
		}
	}
	return 0, false
}

// TwoLevel groups consecutive warp IDs into fetch groups of the given size.
type TwoLevel struct{ groupScheduler }

// NewTwoLevel builds a two-level scheduler with fetch groups of groupSize
// consecutive warps.
func NewTwoLevel(numWarps, groupSize int) *TwoLevel {
	if groupSize <= 0 {
		groupSize = 8
	}
	numGroups := (numWarps + groupSize - 1) / groupSize
	return &TwoLevel{newGroupScheduler("twolevel", numWarps, numGroups,
		func(w int) int { return w / groupSize })}
}

// PA is the prefetch-aware group scheduler: warps are assigned to groups by
// modulo so consecutive warps (which access consecutive data) land in
// different groups.
type PA struct{ groupScheduler }

// NewPA builds a prefetch-aware scheduler with the given group count.
func NewPA(numWarps, numGroups int) *PA {
	if numGroups <= 0 {
		numGroups = 8
	}
	if numGroups > numWarps {
		numGroups = numWarps
	}
	return &PA{newGroupScheduler("pa", numWarps, numGroups,
		func(w int) int { return w % numGroups })}
}
