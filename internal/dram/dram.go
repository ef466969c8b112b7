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
	"cmp"
	"slices"
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
// cycle Tick will pop the event that produces it, plus the event's heap
// sequence number as the canonical tie-break. The parallel engine's epoch
// lookahead (PeekWindowResponses) returns these so each worker can enqueue
// its own SM's responses at exactly the cycles the serial loop would.
type Scheduled struct {
	// EnqueueCycle is when the serial loop would enqueue Resp into the NoC
	// (the producing event's pop cycle).
	EnqueueCycle int64
	// Seq is the producing event's heap sequence number.
	Seq int64
	// Resp is the response itself (ReadyCycle already includes the DRAM
	// return leg for fill waiters).
	Resp Response
}

type eventKind uint8

const (
	evL2Hit eventKind = iota
	evDRAMFill
)

// event is the payload of one scheduled L2-hit or DRAM-fill completion. It
// lives in MemSystem.slab from push to pop; the heap orders eventKeys that
// point at it, so a sift moves 24 bytes instead of the whole request.
type event struct {
	kind      eventKind
	partition int
	line      arch.LineAddr
	req       arch.MemReq // for evL2Hit
}

// eventKey is one heap entry: the pop order (cycle, then the push sequence
// number as the deterministic tie-break) and the payload's slab slot.
type eventKey struct {
	cycle, seq int64
	slot       int32
}

// eventHeap is a hand-rolled binary min-heap ordered by (cycle, seq).
// container/heap would box every entry through its interface{} methods —
// one allocation per push and pop on the simulator's hottest path — so the
// sift operations are written out against the concrete slice instead.
type eventHeap []eventKey

func (h eventHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(k eventKey) {
	s := append(*h, k)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *eventHeap) pop() eventKey {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

func (h eventHeap) peekCycle() int64 { return h[0].cycle }
func (h eventHeap) empty() bool      { return len(h) == 0 }

// peekKey names one heap entry by its pop order and its index in the heap
// array (the window lookahead's walk needs the index to find the children).
type peekKey struct {
	cycle, seq int64
	idx        int
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
	cfg    config.Config
	parts  []partition
	events eventHeap
	// slab holds the payloads of the events in the heap; freeSlots lists the
	// slots whose event has popped. Both are bounded by the events in flight,
	// so the steady state pushes and pops without allocating.
	slab      []event
	freeSlots []int32
	seq       int64
	st        *stats.Stats
	returnLeg int64
	responses []Response // scratch, reused across Tick calls
	tr        *trace.Tracer
	// hitEvents counts evL2Hit entries currently in the heap, so
	// NextResponseCycle knows whether the head-cycle bound must be padded
	// by the DRAM return leg without scanning the heap.
	hitEvents int
	// lastTick is the most recent cycle Tick ran at; every event scheduled
	// at or before it has been popped. NextFillCycle uses it to discard
	// stale fillCycles entries lazily.
	lastTick int64
	// fillCycles mirrors the cycles of evDRAMFill events as a min-heap of
	// plain int64s, maintained only when trackFills is on (the parallel
	// engine enables it). It makes NextFillCycle O(log n) instead of an
	// O(n) heap scan per epoch-planning call; the serial engine never pays
	// for it.
	fillCycles []int64
	trackFills bool
	// fillLines maps each line with an in-flight DRAM fill to its fill
	// event (trackFills only). The parallel engine's workers use it as a
	// frozen snapshot during an epoch: a request to a line present here
	// with a pop cycle after the request's cycle will merge into that fill,
	// which is what lets a worker mirror its own merges into its response
	// schedule without touching the shared MSHRs.
	fillLines mem.LineTable[fillRef]
	// peekKeys/peekSched are scratch for PeekWindowResponses, reused across
	// calls like the responses slice.
	peekKeys  []peekKey
	peekSched []Scheduled
	// scratch is the pooled backing for all trackFills state above, held
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
// into the memory system at the given cycle.
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
		m.push(cycle+int64(m.cfg.L2Latency), event{kind: evL2Hit, partition: p, line: req.Line, req: req})
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
		m.push(start+int64(m.cfg.DRAMLatency), event{kind: evDRAMFill, partition: p, line: req.Line})
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

// push schedules e to pop at cycle.
func (m *MemSystem) push(cycle int64, e event) {
	k := eventKey{cycle: cycle, seq: m.seq}
	m.seq++
	if e.kind == evL2Hit {
		m.hitEvents++
	} else if m.trackFills {
		m.fillCycles = pushInt64(m.fillCycles, cycle)
		m.fillLines.Put(e.line, fillRef{cycle: cycle, seq: k.seq})
	}
	if n := len(m.freeSlots); n > 0 {
		k.slot = m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		m.slab[k.slot] = e
	} else {
		k.slot = int32(len(m.slab))
		m.slab = append(m.slab, e)
	}
	m.events.push(k)
}

// pushInt64 inserts v into a binary min-heap of int64s.
func pushInt64(h []int64, v int64) []int64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// popInt64 removes the minimum from a binary min-heap of int64s.
func popInt64(h []int64) []int64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[c] >= h[i] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}

// fillScratch is the TrackFills working set — the line table, the fill-cycle
// heap, and the window-lookahead scratch — pooled across
// MemSystem instances so each parallel run reuses warmed capacity instead of
// regrowing it from nil. No simulation state crosses runs: the table is
// cleared and every slice reset to length zero on release.
type fillScratch struct {
	lines  mem.LineTable[fillRef]
	cycles []int64
	keys   []peekKey
	sched  []Scheduled
}

var fillScratchPool = sync.Pool{New: func() any { return new(fillScratch) }}

// TrackFills enables (or disables) the fill mirrors behind NextFillCycle
// and FillFor. The parallel engine turns it on at run
// start, before any request enters the system, and off when the run ends
// (returning the working set to the pool); the serial engine leaves it off
// and pays nothing.
func (m *MemSystem) TrackFills(on bool) {
	if on && !m.trackFills {
		fs := fillScratchPool.Get().(*fillScratch)
		m.fillLines = fs.lines
		m.fillCycles = fs.cycles[:0]
		m.peekKeys = fs.keys[:0]
		m.peekSched = fs.sched[:0]
		m.scratch = fs
	} else if !on && m.trackFills && m.scratch != nil {
		fs := m.scratch
		m.fillLines.Clear()
		fs.lines = m.fillLines
		fs.cycles = m.fillCycles[:0]
		fs.keys = m.peekKeys[:0]
		fs.sched = m.peekSched[:0]
		m.fillLines, m.fillCycles = mem.LineTable[fillRef]{}, nil
		m.peekKeys, m.peekSched = nil, nil
		m.scratch = nil
		fillScratchPool.Put(fs)
	}
	m.trackFills = on
}

// NextFillCycle returns the cycle of the earliest scheduled DRAM fill
// event, or -1 when none is scheduled. Only valid while TrackFills is on.
// The parallel engine uses it as an epoch bound: inside a window with no
// fill pops, every response the memory system can produce is an L2 hit
// whose timing and target were fixed when the request was issued — which
// is what makes the engine's hit lookahead exact.
func (m *MemSystem) NextFillCycle() int64 {
	for len(m.fillCycles) > 0 && m.fillCycles[0] <= m.lastTick {
		m.fillCycles = popInt64(m.fillCycles)
	}
	if len(m.fillCycles) == 0 {
		return -1
	}
	return m.fillCycles[0]
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

// PeekWindowResponses returns, without mutating the event heap, every
// response that events scheduled at or before upTo will produce — L2 hits
// and DRAM-fill waiters alike — in the exact (cycle, seq, waiter-index)
// order Tick will emit them, stamped with their enqueue cycles. The parallel
// engine calls it at epoch start to build each worker's response schedule;
// the later barrier drain re-pops the same events for real (stats, heap and
// MSHR bookkeeping) and enqueues nothing, because every response a window
// can produce is either scheduled here or mirrored by the issuing worker.
// Fill waiter lists are read as frozen at call time; waiters appended during
// the window come only from in-window requests, whose workers mirror them.
// The returned slice is reused across calls.
func (m *MemSystem) PeekWindowResponses(upTo int64) []Scheduled {
	// Collect only the window's slice of the heap: descend from the root and
	// prune every subtree whose root pops after upTo — heap order puts all of
	// its descendants after upTo as well, so the pruning is exact. The key
	// slice doubles as the breadth-first work list.
	keys := m.peekKeys[:0]
	visit := func(i int) {
		if i < len(m.events) && m.events[i].cycle <= upTo {
			keys = append(keys, peekKey{cycle: m.events[i].cycle, seq: m.events[i].seq, idx: i})
		}
	}
	visit(0)
	for k := 0; k < len(keys); k++ {
		visit(2*keys[k].idx + 1)
		visit(2*keys[k].idx + 2)
	}
	slices.SortFunc(keys, func(a, b peekKey) int {
		if a.cycle != b.cycle {
			return cmp.Compare(a.cycle, b.cycle)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	m.peekKeys = keys
	m.peekSched = m.peekSched[:0]
	for _, k := range keys {
		e := &m.slab[m.events[k.idx].slot]
		switch e.kind {
		case evL2Hit:
			m.peekSched = append(m.peekSched, Scheduled{
				EnqueueCycle: k.cycle, Seq: k.seq,
				Resp: Response{Req: e.req, ReadyCycle: k.cycle},
			})
		case evDRAMFill:
			ready := k.cycle + m.returnLeg
			for _, w := range m.parts[e.partition].l2.MSHRWaiters(e.line) {
				m.peekSched = append(m.peekSched, Scheduled{
					EnqueueCycle: k.cycle, Seq: k.seq,
					Resp: Response{Req: w, ReadyCycle: ready},
				})
			}
		}
	}
	return m.peekSched
}

// Tick advances the memory system to the given cycle and returns the
// responses that completed. The returned slice is reused across calls.
func (m *MemSystem) Tick(cycle int64) []Response {
	m.lastTick = cycle
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
	for !m.events.empty() && m.events.peekCycle() <= cycle {
		k := m.events.pop()
		// The slot is free from here on, but nothing below pushes: e stays
		// valid until the next Request or retry.
		e := &m.slab[k.slot]
		m.freeSlots = append(m.freeSlots, k.slot)
		switch e.kind {
		case evL2Hit:
			m.hitEvents--
			m.responses = append(m.responses, Response{Req: e.req, ReadyCycle: k.cycle})
			if m.tr != nil {
				m.tr.Emit(trace.Event{Kind: trace.KindL2Leave, Unit: int32(e.partition),
					Warp: int32(e.req.Warp), PC: uint32(e.req.PC), Line: uint64(e.line)})
			}
		case evDRAMFill:
			if m.trackFills {
				m.fillLines.Delete(e.line)
				// Eagerly discharge mirror entries this pop retires, so the
				// heap stays bounded by fills in flight instead of growing for
				// the whole run (NextFillCycle still discards lazily for
				// entries retired between queries).
				for len(m.fillCycles) > 0 && m.fillCycles[0] <= k.cycle {
					m.fillCycles = popInt64(m.fillCycles)
				}
			}
			fill := m.parts[e.partition].l2.Fill(e.line, k.cycle)
			if fill.Entry == nil {
				continue
			}
			ready := k.cycle + m.returnLeg
			for _, w := range fill.Entry.Waiters {
				m.responses = append(m.responses, Response{Req: w, ReadyCycle: ready})
			}
			if m.tr != nil {
				m.tr.Emit(trace.Event{Kind: trace.KindDRAMLeave, Unit: int32(e.partition),
					Line: uint64(e.line), Arg: int64(len(fill.Entry.Waiters))})
			}
		}
	}
	return m.responses
}

// NextEventCycle returns the earliest cycle after cycle at which Tick
// would do any work — the event heap's head, or cycle+1 when an
// MSHR-stalled request could retry into a freed entry — or -1 when the
// system has nothing scheduled. The event-driven loop uses it as one of
// the bounds on how far the clock may skip. peekCycle is O(1): the heap
// already exists for event ordering, so fast-forwarding is free here.
func (m *MemSystem) NextEventCycle(cycle int64) int64 {
	for i := range m.parts {
		pt := &m.parts[i]
		if len(pt.pending) > 0 && pt.l2.MSHRCount() < pt.l2.MSHRMax() {
			return cycle + 1
		}
	}
	if m.events.empty() {
		return -1
	}
	return m.events.peekCycle()
}

// NextResponseCycle returns a conservative (never late) lower bound on the
// earliest cycle at which any currently scheduled event can produce a
// response toward an SM, or -1 when no events are scheduled. An L2 hit
// event at cycle t yields a response ready at t; a DRAM fill at t wakes its
// waiters at t+returnLeg, so when the heap holds no hit events the head
// cycle can be padded by the return leg. MSHR-stalled retries need no term
// of their own: a retry at cycle c first responds at c+L2Latency, beyond
// the parallel engine's epoch-length cap, which is the one caller of this
// bound.
func (m *MemSystem) NextResponseCycle() int64 {
	if m.events.empty() {
		return -1
	}
	t := m.events.peekCycle()
	if m.hitEvents == 0 {
		t += m.returnLeg
	}
	return t
}

// QueueDepth returns the number of requests currently inside the memory
// system: scheduled L2/DRAM events plus MSHR-stalled retries. It is the
// interval sampler's dram_queue_depth gauge.
func (m *MemSystem) QueueDepth() int64 {
	d := int64(len(m.events))
	for i := range m.parts {
		d += int64(len(m.parts[i].pending))
	}
	return d
}

// Drained reports whether no events or pending requests remain.
func (m *MemSystem) Drained() bool {
	if !m.events.empty() {
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
