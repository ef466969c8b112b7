// LAWS — Locality Aware Warp Scheduling, the scheduling half of APRES
// (Section IV.A of the paper).
//
// LAWS keeps warps in a priority-ordered scheduling queue and issues the
// first ready warp, which makes a small set of leading warps run greedily.
// A Last Load Table (LLT) records the PC of the last global load each warp
// issued. When a warp issues a load, every warp whose LLT matches the
// issuing warp's previous load PC is grouped with it in the Warp Group
// Table (WGT): those warps executed the same load last, so they are about
// to execute this same load too. The L1 result of the group's head warp
// then acts as a proxy for the whole group: on a hit the group is moved to
// the queue head (the load has locality, the others will hit the same
// lines); on a miss the group is demoted to the tail, and — under APRES —
// handed to the SAP prefetcher, whose prefetch-target warps LAWS then
// re-prioritises so their demands merge into the in-flight prefetches.
package sched

import (
	"apres/internal/arch"
	"apres/internal/trace"
)

// noLLPC marks a warp that has not issued any load yet. All such warps
// share the same (empty) load history and are groupable, which warms the
// mechanism up at kernel start.
const noLLPC arch.PC = 0

type llpcSet struct {
	pc   arch.PC
	mask arch.WarpMask
}

type wgtEntry struct {
	id    int
	mask  arch.WarpMask
	valid bool
}

// LAWS implements the locality-aware warp scheduler.
type LAWS struct {
	Base
	numWarps     int
	tailDemotion bool

	queue []arch.WarpID // priority order, head first
	llt   []arch.PC
	// sameLLPC holds, per distinct LLT value, the warps whose entry has it;
	// the sets partition the warps and empty ones are dropped.
	sameLLPC []llpcSet
	wgt      []wgtEntry
	wgtRR    int // ring allocation pointer
	nexID    int

	tr     *trace.Tracer
	trUnit int32
}

// SetTracer attaches the trace sink; nil disables tracing (the default).
func (s *LAWS) SetTracer(tr *trace.Tracer, unit int32) {
	s.tr = tr
	s.trUnit = unit
}

// NewLAWS builds a LAWS scheduler with the given WGT capacity (the paper
// uses 3, matching the issue-to-execute depth) and tail-demotion policy.
func NewLAWS(numWarps, wgtEntries int, tailDemotion bool) *LAWS {
	if wgtEntries <= 0 {
		wgtEntries = 3
	}
	s := &LAWS{
		numWarps:     numWarps,
		tailDemotion: tailDemotion,
		queue:        make([]arch.WarpID, numWarps),
		llt:          make([]arch.PC, numWarps),
		sameLLPC:     []llpcSet{{noLLPC, arch.FirstWarps(numWarps)}},
		wgt:          make([]wgtEntry, wgtEntries),
	}
	for i := range s.queue {
		s.queue[i] = arch.WarpID(i)
	}
	return s
}

// Name implements Scheduler.
func (s *LAWS) Name() string { return "laws" }

// Pick implements Scheduler: the first ready warp in queue priority order.
func (s *LAWS) Pick(ready arch.WarpMask, _ int64) (arch.WarpID, bool) {
	for _, w := range s.queue {
		if ready.Has(w) {
			return w, true
		}
	}
	return 0, false
}

// setLLPC moves warp w's LLT entry, and its sameLLPC membership, to pc.
func (s *LAWS) setLLPC(w arch.WarpID, pc arch.PC) {
	if s.llt[w] == pc {
		return
	}
	s.llpcSet(s.llt[w]).mask &^= arch.Bit(w)
	s.llt[w] = pc
	s.llpcSet(pc).mask |= arch.Bit(w)
}

// llpcSet returns the set of warps whose LLT entry is pc, reusing an empty
// set's slot for a pc that has none.
func (s *LAWS) llpcSet(pc arch.PC) *llpcSet {
	free := -1
	for i := range s.sameLLPC {
		if e := &s.sameLLPC[i]; e.mask == 0 {
			free = i
		} else if e.pc == pc {
			return e
		}
	}
	if free < 0 {
		free = len(s.sameLLPC)
		s.sameLLPC = append(s.sameLLPC, llpcSet{})
	}
	s.sameLLPC[free].pc = pc
	return &s.sameLLPC[free]
}

// OnLoadIssued implements Scheduler: form a warp group from LLT matches and
// record it in the WGT.
func (s *LAWS) OnLoadIssued(w arch.WarpID, pc arch.PC) int {
	if int(w) >= s.numWarps {
		return NoGroup
	}
	mask := s.llpcSet(s.llt[w]).mask
	s.setLLPC(w, pc)

	id := s.nexID
	s.nexID++
	s.wgt[s.wgtRR] = wgtEntry{id: id, mask: mask, valid: true}
	s.wgtRR = (s.wgtRR + 1) % len(s.wgt)
	return id
}

// OnCacheResult implements Scheduler: use the head warp's L1 outcome as the
// group's locality proxy, reprioritise, invalidate the WGT entry, and
// return the group so the core can couple a miss to SAP.
func (s *LAWS) OnCacheResult(w arch.WarpID, _ arch.PC, _ arch.LineAddr, hit bool, group int) arch.WarpMask {
	if group == NoGroup {
		return 0
	}
	for i := range s.wgt {
		e := &s.wgt[i]
		if !e.valid || e.id != group {
			continue
		}
		mask := e.mask
		e.valid = false
		if hit {
			s.moveToHead(mask)
			if s.tr != nil {
				s.tr.Emit(trace.Event{Kind: trace.KindGroupPromote, Unit: s.trUnit,
					Warp: int32(w), Arg: int64(mask)})
			}
		} else if s.tailDemotion {
			s.moveToTail(mask)
			if s.tr != nil {
				s.tr.Emit(trace.Event{Kind: trace.KindGroupDemote, Unit: s.trUnit,
					Warp: int32(w), Arg: int64(mask)})
			}
		}
		return mask
	}
	return 0
}

// PrioritizeWarps implements Scheduler: SAP's prefetch-target warps move to
// the queue head so their demand accesses merge into the in-flight
// prefetches before the lines can be evicted.
func (s *LAWS) PrioritizeWarps(mask arch.WarpMask) { s.moveToHead(mask) }

// moveToHead stably partitions the queue with group members first.
func (s *LAWS) moveToHead(mask arch.WarpMask) {
	s.partition(mask, true)
}

// moveToTail stably partitions the queue with group members last.
func (s *LAWS) moveToTail(mask arch.WarpMask) {
	s.partition(mask, false)
}

// partition runs on every lead-load result, so it allocates nothing: the
// front half is compacted in place (the write index never passes the read
// index) and the back half waits in a fixed scratch array — a warp mask, and
// so the queue, holds at most 64 warps.
func (s *LAWS) partition(mask arch.WarpMask, membersFirst bool) {
	var back [64]arch.WarpID
	nf, nb := 0, 0
	for _, w := range s.queue {
		if mask.Has(w) == membersFirst {
			s.queue[nf] = w
			nf++
		} else {
			back[nb] = w
			nb++
		}
	}
	copy(s.queue[nf:], back[:nb])
}

// OnWarpRelaunched implements Scheduler: clear the slot's load history.
func (s *LAWS) OnWarpRelaunched(w arch.WarpID) {
	if int(w) < s.numWarps {
		s.setLLPC(w, noLLPC)
	}
}

// Queue exposes the current priority order (for tests and tracing).
func (s *LAWS) Queue() []arch.WarpID { return s.queue }

// LLPC exposes warp w's last-load PC (for tests).
func (s *LAWS) LLPC(w arch.WarpID) arch.PC { return s.llt[w] }
