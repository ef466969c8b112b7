// Package dram models the shared memory system below the per-SM L1 caches:
// a last-level cache split into partitions, each dedicated to one DRAM
// partition (Section II of the paper), with MSHR merging at the L2, a
// minimum DRAM latency, and finite per-partition service bandwidth that
// creates the queueing delay the paper identifies as a key bottleneck.
//
// Timing model (Table III): an L1 miss that hits in an L2 partition is
// filled after L2Latency cycles (interconnect included). An L2 miss begins
// DRAM service no earlier than the partition's next free service slot
// (one request per DRAMServiceInterval cycles), completes DRAMLatency
// cycles later, fills the L2, and the response travels back in
// L2Latency/2 cycles.
package dram

import (
	"sync"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/mem"
	"apres/internal/stats"
	"apres/internal/trace"
)

// Response is a completed memory request on its way back to an SM's L1.
type Response struct {
	// Req is the original L1-level request (one Response is emitted per
	// merged waiter).
	Req arch.MemReq
	// ReadyCycle is when the response reaches the SM boundary.
	ReadyCycle int64
}

// Scheduled is a Response whose NoC-enqueue point is already determined: the
// cycle Tick will pop the event that produces it, plus the event's push
// sequence number as the canonical tie-break. The parallel engine's epoch
// lookahead (PeekWindowResponses) returns these so each worker can enqueue
// its own SM's responses at exactly the cycles the serial loop would.
type Scheduled struct {
	// EnqueueCycle is when the serial loop would enqueue Resp into the NoC
	// (the producing event's pop cycle).
	EnqueueCycle int64
	// Seq is the producing event's push sequence number.
	Seq int64
	// Resp is the response itself (ReadyCycle already includes the DRAM
	// return leg for fill waiters).
	Resp Response
}

// fillRef locates one in-flight DRAM fill: its scheduled pop cycle and the
// producing event's sequence number. There is at most one in-flight fill per
// line (an MSHR entry and its fill event are created together and retired
// together), so fillLines can key by line address.
type fillRef struct {
	cycle int64
	seq   int64
}

type partition struct {
	l2       *mem.Cache
	nextFree int64 // next cycle DRAM service can start
	pending  []arch.MemReq
}

// MemSystem is the GPU-shared L2 + DRAM model.
type MemSystem struct {
	cfg   config.Config
	parts []partition
	// events is the queue of scheduled L2-hit and DRAM-fill completions.
	events    eventRing
	seq       int64
	st        *stats.Stats
	returnLeg int64
	responses []Response // scratch, reused across Tick calls
	tr        *trace.Tracer
	// fillLines maps each line with an in-flight DRAM fill to its fill
	// event, maintained only when trackFills is on (the parallel engine
	// enables it; the serial engine never pays for it). The parallel engine's
	// workers use it as a frozen snapshot during an epoch: a request to a
	// line present here with a pop cycle after the request's cycle will merge
	// into that fill, which is what lets a worker mirror its own merges into
	// its response schedule without touching the shared MSHRs.
	fillLines  mem.LineTable[fillRef]
	trackFills bool
	// peekSched is scratch for PeekWindowResponses, reused across calls like
	// the responses slice.
	peekSched []Scheduled
	// scratch is the pooled backing for the trackFills state above, held
	// while tracking is on and returned to fillScratchPool on TrackFills(false).
	scratch *fillScratch
}

// SetTracer attaches the trace sink; nil disables tracing (the default).
func (m *MemSystem) SetTracer(tr *trace.Tracer) { m.tr = tr }

// New builds the memory system. Stats for L2/DRAM counters are written to
// st (typically the GPU-level aggregate).
func New(cfg config.Config, st *stats.Stats) *MemSystem {
	m := &MemSystem{
		cfg:       cfg,
		parts:     make([]partition, cfg.DRAMPartitions),
		st:        st,
		returnLeg: int64(cfg.L2Latency) / 2,
		// How far ahead of its Request an event can be due: an L2 hit
		// L2Latency, a fill DRAMLatency past its service slot, and a partition
		// cannot have slots booked further out than one per L2 MSHR (every
		// booked slot not yet DRAMLatency old holds an entry). Only a backlog
		// of stores, which book slots without holding entries, can exceed
		// this; the ring grows if one does.
		events: newEventRing(int64(max(cfg.L2Latency, cfg.DRAMLatency+cfg.L2MSHRs*cfg.DRAMServiceInterval))),
	}
	sliceSize := cfg.L2SizeBytes / cfg.DRAMPartitions
	for i := range m.parts {
		m.parts[i].l2 = mem.NewL2Cache("L2", sliceSize, cfg.L2Ways, cfg.L2MSHRs)
	}
	return m
}

// L2 exposes partition p's L2 slice (for tests and end-of-run inspection,
// like core.SM.L1).
func (m *MemSystem) L2(p int) *mem.Cache { return m.parts[p].l2 }

// PartitionOf returns the memory partition index for a line address.
func (m *MemSystem) PartitionOf(l arch.LineAddr) int {
	return int(uint64(l) % uint64(len(m.parts)))
}

// Request injects an L1 miss (demand or prefetch) or a write-through store
// into the memory system at the given cycle, which must not lie before the
// last Tick's: both engines call Tick(c) and then Request(·, c), cycle by
// cycle. A request from the past is still answered, but an event it schedules
// at or before the last Tick's cycle pops at the next Tick instead.
func (m *MemSystem) Request(req arch.MemReq, cycle int64) {
	p := m.PartitionOf(req.Line)
	if req.Kind == arch.AccessStore {
		// Write-through, no-allocate; consumes a DRAM service slot so
		// stores compete with fills for bandwidth.
		pt := &m.parts[p]
		start := max64(cycle, pt.nextFree)
		pt.nextFree = start + int64(m.cfg.DRAMServiceInterval)
		m.st.DRAMAccesses++
		m.st.BytesFromDRAM += arch.LineSizeBytes
		return
	}
	m.access(p, req, cycle)
}

func (m *MemSystem) access(p int, req arch.MemReq, cycle int64) {
	pt := &m.parts[p]
	m.st.L2Accesses++
	out := pt.l2.Access(req, cycle)
	switch out.Result {
	case arch.ResultHit:
		m.st.GPUL2Hits++
		m.push(event{cycle: cycle + int64(m.cfg.L2Latency), kind: evL2Hit, partition: int32(p), req: req})
		if m.tr != nil {
			m.tr.Emit(trace.Event{Kind: trace.KindL2Enter, Unit: int32(p),
				Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line),
				Arg: trace.L2OutcomeHit})
		}
	case arch.ResultMergedMSHR:
		// Waiter recorded inside the L2 MSHR entry; it will be woken by
		// the fill event already scheduled for this line.
		m.st.L2Misses++
		if m.tr != nil {
			m.tr.Emit(trace.Event{Kind: trace.KindL2Enter, Unit: int32(p),
				Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line),
				Arg: trace.L2OutcomeMerge})
		}
	case arch.ResultMiss:
		m.st.L2Misses++
		m.st.DRAMAccesses++
		m.st.BytesFromDRAM += arch.LineSizeBytes
		start := max64(cycle, pt.nextFree)
		pt.nextFree = start + int64(m.cfg.DRAMServiceInterval)
		m.st.DRAMQueueCycles += start - cycle
		m.push(event{cycle: start + int64(m.cfg.DRAMLatency), kind: evDRAMFill, partition: int32(p),
			req: arch.MemReq{Line: req.Line}})
		if m.tr != nil {
			m.tr.Emit(trace.Event{Kind: trace.KindL2Enter, Unit: int32(p),
				Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line),
				Arg: trace.L2OutcomeMiss})
			m.tr.Emit(trace.Event{Kind: trace.KindDRAMEnter, Unit: int32(p),
				Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line),
				Arg: start - cycle})
		}
	case arch.ResultStall:
		pt.pending = append(pt.pending, req)
		if m.tr != nil {
			m.tr.Emit(trace.Event{Kind: trace.KindL2Enter, Unit: int32(p),
				Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line),
				Arg: trace.L2OutcomeStall})
		}
	}
}

// push schedules e, stamping it with the next sequence number.
func (m *MemSystem) push(e event) {
	e.seq = m.seq
	m.seq++
	if e.kind == evDRAMFill && m.trackFills {
		m.fillLines.Put(e.req.Line, fillRef{cycle: e.cycle, seq: e.seq})
	}
	m.events.push(e)
}

// fillScratch is the TrackFills working set — the line table and the
// window-lookahead scratch — pooled across MemSystem instances so each
// parallel run reuses warmed capacity instead of regrowing it from nil. No
// simulation state crosses runs: the table is cleared and the slice reset to
// length zero on release.
type fillScratch struct {
	lines mem.LineTable[fillRef]
	sched []Scheduled
}

var fillScratchPool = sync.Pool{New: func() any { return new(fillScratch) }}

// TrackFills enables (or disables) the fill map behind FillFor. The parallel
// engine turns it on at run start, before any request enters the system, and
// off when the run ends (returning the working set to the pool); the serial
// engine leaves it off and pays nothing.
func (m *MemSystem) TrackFills(on bool) {
	if on && !m.trackFills {
		fs := fillScratchPool.Get().(*fillScratch)
		m.fillLines = fs.lines
		m.peekSched = fs.sched[:0]
		m.scratch = fs
	} else if !on && m.trackFills && m.scratch != nil {
		fs := m.scratch
		m.fillLines.Clear()
		fs.lines = m.fillLines
		fs.sched = m.peekSched[:0]
		m.fillLines = mem.LineTable[fillRef]{}
		m.peekSched = nil
		m.scratch = nil
		fillScratchPool.Put(fs)
	}
	m.trackFills = on
}

// NextFillCycle returns the cycle of the earliest scheduled DRAM fill
// event, or -1 when none is scheduled. The parallel engine uses it as an
// epoch bound only when retries are pending at window start (see
// PendingRetries): such a window stops before the first fill pop.
func (m *MemSystem) NextFillCycle() int64 {
	if t := m.events.nextFill(); t != noEvent {
		return t
	}
	return -1
}

// PendingRetries reports whether any partition holds MSHR-stalled requests
// waiting to retry. The parallel engine's epoch planner must know: a pending
// request retried inside a window can merge into a fill that pops inside the
// same window — a response no worker could have foreseen at epoch start —
// so windows that start with retries pending stop before the first fill pop.
func (m *MemSystem) PendingRetries() bool {
	for i := range m.parts {
		if len(m.parts[i].pending) > 0 {
			return true
		}
	}
	return false
}

// FillFor returns the scheduled pop cycle and event sequence of the
// in-flight DRAM fill for line l, if one exists. Only valid while
// TrackFills is on. During an epoch the memory system is frozen, so workers
// may call it concurrently (read-only) to detect that one of their own
// requests will merge into an already-scheduled fill: a line cannot be
// resident while its fill is in flight, and entries retire only when their
// fill pops, so "present here with cycle > request cycle" is exactly the
// serial merge condition.
func (m *MemSystem) FillFor(l arch.LineAddr) (cycle, seq int64, ok bool) {
	ref, ok := m.fillLines.Get(l)
	return ref.cycle, ref.seq, ok
}

// ReturnLeg is the DRAM-fill response's travel time from L2 back to the SM
// boundary (L2Latency/2, Table III). Exposed so the parallel engine can
// compute the ReadyCycle of a mirrored merge response.
func (m *MemSystem) ReturnLeg() int64 { return m.returnLeg }

// PeekWindowResponses returns, without mutating the event queue, every
// response that events scheduled at or before upTo will produce — L2 hits
// and DRAM-fill waiters alike — in the exact (cycle, seq, waiter-index)
// order Tick will emit them, stamped with their enqueue cycles. The parallel
// engine calls it at epoch start to build each worker's response schedule;
// the later barrier drain re-pops the same events for real (stats, queue and
// MSHR bookkeeping) and enqueues nothing, because every response a window
// can produce is either scheduled here or mirrored by the issuing worker.
// Fill waiter lists are read as frozen at call time; waiters appended during
// the window come only from in-window requests, whose workers mirror them.
// The returned slice is reused across calls.
func (m *MemSystem) PeekWindowResponses(upTo int64) []Scheduled {
	// The ring's buckets from the head on are already in (cycle, seq) order.
	r := &m.events
	m.peekSched = m.peekSched[:0]
	for at := r.head; at <= upTo; at = r.after(at) {
		for slot := r.first(at); slot >= 0; slot = r.slab[slot].next {
			e := &r.slab[slot]
			switch e.kind {
			case evL2Hit:
				m.peekSched = append(m.peekSched, Scheduled{
					EnqueueCycle: at, Seq: e.seq,
					Resp: Response{Req: e.req, ReadyCycle: e.cycle},
				})
			case evDRAMFill:
				ready := e.cycle + m.returnLeg
				for _, w := range m.parts[e.partition].l2.MSHRWaiters(e.req.Line) {
					m.peekSched = append(m.peekSched, Scheduled{
						EnqueueCycle: at, Seq: e.seq,
						Resp: Response{Req: w, ReadyCycle: ready},
					})
				}
			}
		}
	}
	return m.peekSched
}

// Tick advances the memory system to the given cycle and returns the
// responses that completed. The returned slice is reused across calls.
func (m *MemSystem) Tick(cycle int64) []Response {
	m.responses = m.responses[:0]
	// Retry MSHR-stalled requests first so freed entries are reused in
	// FIFO order.
	for p := range m.parts {
		pt := &m.parts[p]
		n := 0
		for _, req := range pt.pending {
			if pt.l2.MSHRCount() >= pt.l2.MSHRMax() {
				pt.pending[n] = req
				n++
				continue
			}
			m.st.L2Accesses-- // re-access; don't double count
			m.access(p, req, cycle)
		}
		pt.pending = pt.pending[:n]
	}
	r := &m.events
	for r.head <= cycle {
		for slot := r.detachHead(); slot >= 0; {
			e := &r.slab[slot]
			switch e.kind {
			case evL2Hit:
				m.responses = append(m.responses, Response{Req: e.req, ReadyCycle: e.cycle})
				if m.tr != nil {
					m.tr.Emit(trace.Event{Kind: trace.KindL2Leave, Unit: e.partition,
						Warp: int32(e.req.Warp), PC: uint32(e.req.PC), Line: uint64(e.req.Line)})
				}
			case evDRAMFill:
				if m.trackFills {
					m.fillLines.Delete(e.req.Line)
				}
				if fill := m.parts[e.partition].l2.Fill(e.req.Line, e.cycle); fill.Entry != nil {
					ready := e.cycle + m.returnLeg
					for _, w := range fill.Entry.Waiters {
						m.responses = append(m.responses, Response{Req: w, ReadyCycle: ready})
					}
					if m.tr != nil {
						m.tr.Emit(trace.Event{Kind: trace.KindDRAMLeave, Unit: e.partition,
							Line: uint64(e.req.Line), Arg: int64(len(fill.Entry.Waiters))})
					}
				}
			}
			// Nothing in this loop pushes, so the payload outlives its slot's
			// release until the next Request or retry.
			next := e.next
			r.release(slot)
			slot = next
		}
	}
	r.advance(cycle)
	return m.responses
}

// NextEventCycle returns the earliest cycle after cycle at which Tick
// would do any work — the event ring's head, or cycle+1 when an
// MSHR-stalled request could retry into a freed entry — or -1 when the
// system has nothing scheduled. The event-driven loop uses it as one of
// the bounds on how far the clock may skip. The ring caches its head cycle,
// so fast-forwarding is free here.
func (m *MemSystem) NextEventCycle(cycle int64) int64 {
	for i := range m.parts {
		pt := &m.parts[i]
		if len(pt.pending) > 0 && pt.l2.MSHRCount() < pt.l2.MSHRMax() {
			return cycle + 1
		}
	}
	if m.events.n == 0 {
		return -1
	}
	return m.events.head
}

// QueueDepth returns the number of requests currently inside the memory
// system: scheduled L2/DRAM events plus MSHR-stalled retries. It is the
// interval sampler's dram_queue_depth gauge.
func (m *MemSystem) QueueDepth() int64 {
	d := int64(m.events.n)
	for i := range m.parts {
		d += int64(len(m.parts[i].pending))
	}
	return d
}

// Drained reports whether no events or pending requests remain.
func (m *MemSystem) Drained() bool {
	if m.events.n != 0 {
		return false
	}
	for i := range m.parts {
		if len(m.parts[i].pending) > 0 || m.parts[i].l2.MSHRCount() > 0 {
			return false
		}
	}
	return true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
