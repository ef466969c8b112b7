// SAP — Scheduling Aware Prefetching, the prefetching half of APRES
// (Section IV.B of the paper).
//
// SAP is driven by LAWS rather than by raw access streams: when the head
// warp of a LAWS warp group misses the L1, LAWS hands SAP the group's warp
// IDs (into the Warp Queue) and the missed demand address (into the Demand
// Request Queue). SAP keeps a small Prefetch Table (PT) of per-PC history —
// the last issuing warp, its address, and the inter-warp stride computed
// from the two most recent observations. A prefetch fires only when the
// freshly computed stride matches the stored one; each group member w gets
// the address  missAddr + (w - missWarp) * stride. The prefetched warp IDs
// go back to LAWS for prioritisation, which is what merges the subsequent
// demand requests into the prefetch MSHRs and protects the lines from early
// eviction.
package prefetch

import (
	"apres/internal/arch"
	"apres/internal/trace"
)

// maxTargetsPerEvent caps how many grouped warps one miss prefetches for.
// Warps closest in logical ID to the missing warp are preferred: they are
// the ones whose progress (and therefore address phase) matches the
// prediction best, and the cap keeps a 48-wide warm-up group from flooding
// the DRAM with one burst.
const maxTargetsPerEvent = 12

// Target identifies one grouped warp: the hardware slot LAWS schedules and
// the logical warp ID whose address SAP predicts.
type Target struct {
	Slot, Wid arch.WarpID
}

// ptEntry is one Prefetch Table row (4 B PC + 1 B warp + 8 B address +
// 8 B stride in the paper's cost model, Table II).
type ptEntry struct {
	pc      arch.PC
	warp    arch.WarpID
	addr    arch.Addr
	stride  int64
	hasPrev bool
	// strideOK marks the stride as confirmed. prevStride keeps the
	// previously confirmed stride so warps drifting between loop phases
	// (which alternate between two observed strides) still match.
	strideOK   bool
	prevStride int64
	hasPrevStr bool
	lastUse    int64
}

// SAP implements scheduling-aware prefetching.
type SAP struct {
	pt         []ptEntry
	drqMax     int
	strideGate bool
	tick       int64

	// drqPending models Demand Request Queue occupancy within a cycle.
	drqPending int
	drqCycle   int64

	// nearest and reqs are OnGroupMiss's scratch: the group's nearest
	// targets, and the returned requests. Both are reused across calls.
	nearest [maxTargetsPerEvent]Target
	reqs    []Request

	tr     *trace.Tracer
	trUnit int32
}

// SetTracer attaches the trace sink; nil disables tracing (the default).
func (p *SAP) SetTracer(tr *trace.Tracer, unit int32) {
	p.tr = tr
	p.trUnit = unit
}

// NewSAP builds a SAP prefetcher with the given PT and DRQ capacities. When
// strideGate is false the stride-match requirement is disabled (ablation).
func NewSAP(ptEntries, drqEntries int, strideGate bool) *SAP {
	if ptEntries <= 0 {
		ptEntries = 10
	}
	if drqEntries <= 0 {
		drqEntries = 32
	}
	return &SAP{
		pt:         make([]ptEntry, ptEntries),
		drqMax:     drqEntries,
		strideGate: strideGate,
	}
}

// Name implements Prefetcher.
func (p *SAP) Name() string { return "sap" }

// OnAccess implements Prefetcher. SAP does not react to ordinary accesses;
// all prefetch generation flows through OnGroupMiss, driven by LAWS.
func (p *SAP) OnAccess(arch.PC, arch.WarpID, arch.WarpID, arch.Addr, bool) []Request {
	return nil
}

// OnGroupMiss processes a head-warp miss for a LAWS warp group and returns
// the prefetches to inject. The returned requests carry the warps they
// target; the core forwards that set to LAWS for prioritisation. The
// returned slice is reused by the next call.
func (p *SAP) OnGroupMiss(pc arch.PC, missWarp arch.WarpID, missAddr arch.Addr, group []Target, cycle int64) []Request {
	// DRQ capacity: at most drqMax buffered miss addresses per cycle.
	if cycle != p.drqCycle {
		p.drqCycle = cycle
		p.drqPending = 0
	}
	if p.drqPending >= p.drqMax {
		return nil
	}
	p.drqPending++

	p.tick++
	e := p.lookup(pc)
	if e == nil {
		e = p.victim()
		*e = ptEntry{pc: pc, warp: missWarp, addr: missAddr, hasPrev: true, lastUse: p.tick}
		return nil
	}
	e.lastUse = p.tick
	dw := int64(missWarp) - int64(e.warp)
	if !e.hasPrev || dw == 0 {
		e.warp, e.addr, e.hasPrev = missWarp, missAddr, true
		return nil
	}
	stride := (int64(missAddr) - int64(e.addr)) / dw
	match := e.strideOK && (stride == e.stride || (e.hasPrevStr && stride == e.prevStride))
	if !match {
		// Stride mismatch: replace and wait for confirmation
		// (Section IV.B: "prefetching is not initiated at that
		// instance and the stride in PT is replaced").
		if e.strideOK && e.stride != stride {
			e.prevStride, e.hasPrevStr = e.stride, true
		}
		e.stride = stride
		e.strideOK = true
		e.warp, e.addr = missWarp, missAddr
		if p.strideGate {
			if p.tr != nil {
				p.tr.Emit(trace.Event{Kind: trace.KindSAPGate, Unit: p.trUnit,
					Warp: int32(missWarp), PC: uint32(pc), Arg: stride})
			}
			return nil
		}
	} else {
		e.stride = stride
		e.warp, e.addr = missWarp, missAddr
	}
	if stride == 0 {
		return nil
	}
	if len(group) > maxTargetsPerEvent {
		group = p.nearestTargets(group, missWarp)
	}
	reqs := p.reqs[:0]
	for _, t := range group {
		if t.Wid == missWarp {
			continue
		}
		a := int64(missAddr) + (int64(t.Wid)-int64(missWarp))*stride
		if a < 0 {
			continue
		}
		reqs = append(reqs, Request{Addr: arch.Addr(a), Warp: t.Slot, PC: pc})
	}
	p.reqs = reqs
	if p.tr != nil && len(reqs) > 0 {
		p.tr.Emit(trace.Event{Kind: trace.KindSAPIssue, Unit: p.trUnit,
			Warp: int32(missWarp), PC: uint32(pc), Arg: stride,
			Line: uint64(len(reqs))})
	}
	return reqs
}

// nearestTargets returns the maxTargetsPerEvent members of group closest to
// missWarp in logical ID, nearest first and the lower ID first at equal
// distance. Logical warp IDs are distinct, so (distance, ID) is a total
// order, packed here into one integer key. Each member is insertion-sorted
// into the kept prefix; most are farther than its last entry and cost one
// comparison.
func (p *SAP) nearestTargets(group []Target, missWarp arch.WarpID) []Target {
	var keys [maxTargetsPerEvent]int64
	n := 0
	for _, t := range group {
		key := abs64(int64(t.Wid)-int64(missWarp))<<32 | int64(t.Wid)
		i := n
		if n == len(keys) {
			if i--; key > keys[i] {
				continue
			}
		} else {
			n++
		}
		for ; i > 0 && keys[i-1] > key; i-- {
			keys[i], p.nearest[i] = keys[i-1], p.nearest[i-1]
		}
		keys[i], p.nearest[i] = key, t
	}
	return p.nearest[:n]
}

func (p *SAP) lookup(pc arch.PC) *ptEntry {
	for i := range p.pt {
		if p.pt[i].lastUse != 0 && p.pt[i].pc == pc {
			return &p.pt[i]
		}
	}
	return nil
}

func (p *SAP) victim() *ptEntry {
	v := &p.pt[0]
	for i := range p.pt {
		if p.pt[i].lastUse < v.lastUse {
			v = &p.pt[i]
		}
	}
	return v
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
