// Package noc models the interconnect between the memory partitions and the
// SMs: memory responses queue per destination SM and drain at a finite
// per-SM byte bandwidth. It is also the measurement point for Figure 14's
// "data moved from memory to SM" traffic metric.
package noc

import (
	"unsafe"

	"apres/internal/arch"
	"apres/internal/dram"
	"apres/internal/stats"
	"apres/internal/trace"
)

// maxCreditLines caps banked bandwidth so an idle period cannot fund an
// unbounded delivery burst.
const maxCreditLines = 4

// maxCreditBytes is the banked-bandwidth cap in bytes.
const maxCreditBytes = maxCreditLines * arch.LineSizeBytes

// smQueue is one SM's response FIFO. Delivered responses advance head
// instead of re-slicing so the backing array is reused once the queue
// drains (the simulator's hot path must not allocate per cycle).
type smQueue struct {
	buf  []dram.Response
	head int
}

// cacheLine is the coherence granule the per-SM state is padded to.
const cacheLine = 64

// smState is everything Deliver and Enqueue write for one SM.
type smState struct {
	q      smQueue
	credit int
	// creditCycle is the cycle the SM's credit was last banked; Deliver
	// banks credit for all elapsed cycles since, so the event-driven loop
	// may skip idle cycles without changing delivery timing.
	creditCycle int64
	// bytesToSM accumulates delivered traffic. Deliver must be callable
	// concurrently for distinct SMs (the parallel engine's workers deliver
	// inside epochs), so the shared stats counter cannot be bumped there;
	// FlushStats folds the per-SM totals into st once, at the end of the
	// run. Nothing samples BytesToSM mid-run, so deferring it is
	// observationally identical for the serial engine too.
	bytesToSM int64
}

// smSlot pads smState to whole cache lines: the parallel engine's workers
// write neighbouring SMs' state from different cores on every delivery, and
// a line shared between two of them would bounce on each write.
type smSlot struct {
	smState
	_ [cacheLine - unsafe.Sizeof(smState{})%cacheLine]byte
}

// Network delivers memory responses to SMs with per-SM bandwidth limits.
type Network struct {
	bytesPerCycle int
	sms           []smSlot
	st            *stats.Stats
	tr            *trace.Tracer
	smTr          []*trace.Tracer
}

// SetTracer attaches the trace sink; nil disables tracing (the default).
func (n *Network) SetTracer(tr *trace.Tracer) { n.tr = tr }

// SetSMTracers overrides the tracer used for per-SM events: when set,
// Enqueue emits KindNoCInject for a response to SM i, and Deliver emits
// KindNoCDeliver for SM i, into smTr[i] instead of the shared tracer. The
// parallel engine's workers enqueue and deliver inside epochs, so both kinds
// land in each SM's local stream, stamped by the worker's clock and carrying
// the queue depth the worker saw; the barrier merge splices them into the
// shared stream in serial order.
func (n *Network) SetSMTracers(smTr []*trace.Tracer) { n.smTr = smTr }

// tracerFor returns the tracer that receives SM sm's events.
func (n *Network) tracerFor(sm int) *trace.Tracer {
	if n.smTr != nil {
		return n.smTr[sm]
	}
	return n.tr
}

// New builds a network for numSMs SMs with the given per-SM response
// bandwidth in bytes per cycle.
func New(numSMs, bytesPerCycle int, st *stats.Stats) *Network {
	n := &Network{
		bytesPerCycle: bytesPerCycle,
		sms:           make([]smSlot, numSMs),
		st:            st,
	}
	for i := range n.sms {
		n.sms[i].creditCycle = -1 // first Deliver at cycle 0 banks one cycle
	}
	return n
}

// Enqueue routes a completed response toward its SM.
//
// Concurrency contract: Enqueue touches only the queue indexed by the
// response's destination SM and that SM's tracer (see SetSMTracers). In
// parallel epochs each worker enqueues its own SM's scheduled responses at
// their serial enqueue cycles, which is safe because workers own disjoint
// SMs and, in parallel mode, every SM has its own tracer.
func (n *Network) Enqueue(r dram.Response) {
	q := &n.sms[r.Req.SM].q
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Compact before growing so partially drained queues reuse their
		// array instead of reallocating forever.
		m := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:m]
		q.head = 0
	}
	q.buf = append(q.buf, r)
	if tr := n.tracerFor(r.Req.SM); tr != nil {
		tr.Emit(trace.Event{Kind: trace.KindNoCInject, Unit: int32(r.Req.SM),
			Warp: int32(r.Req.Warp), PC: uint32(r.Req.PC), Line: uint64(r.Req.Line),
			Arg: int64(len(q.buf) - q.head)})
	}
}

// bankCredit accrues bandwidth credit for every cycle elapsed since the
// SM's last delivery opportunity, capped at maxCreditBytes. Banking by
// elapsed cycles is exactly equivalent to the per-cycle accrual of a
// cycle-by-cycle loop: credit only ever grows between Deliver calls, so
// applying the cap once at the end equals applying it every cycle.
func (n *Network) bankCredit(s *smState, cycle int64) {
	gap := cycle - s.creditCycle
	s.creditCycle = cycle
	if gap <= 0 {
		return
	}
	// Saturation guard first: keeps int(gap)*bytesPerCycle far from
	// overflow for arbitrarily long skips.
	if gap > int64(maxCreditBytes/n.bytesPerCycle) {
		s.credit = maxCreditBytes
		return
	}
	c := s.credit + int(gap)*n.bytesPerCycle
	if c > maxCreditBytes {
		c = maxCreditBytes
	}
	s.credit = c
}

// Deliver returns the responses that reach SM sm at the given cycle, limited
// by the SM's accumulated bandwidth credit. The returned slice is only valid
// until the next Enqueue or Deliver call for the same SM.
//
// Concurrency contract: Deliver (and NextDeliveryCycleSM) touch only sm's
// own smSlot and per-SM tracer, so calls for distinct SMs may run on
// distinct goroutines, as the parallel engine's workers do inside an epoch.
// Apart from Enqueue, the remaining methods stay single-threaded (serial
// steps and epoch barriers).
func (n *Network) Deliver(sm int, cycle int64) []dram.Response {
	s := &n.sms[sm].smState
	n.bankCredit(s, cycle)
	q := &s.q
	pend := q.buf[q.head:]
	delivered := 0
	for delivered < len(pend) &&
		pend[delivered].ReadyCycle <= cycle &&
		s.credit >= arch.LineSizeBytes {
		s.credit -= arch.LineSizeBytes
		s.bytesToSM += arch.LineSizeBytes
		delivered++
	}
	q.head += delivered
	if delivered > 0 {
		if tr := n.tracerFor(sm); tr != nil {
			tr.Emit(trace.Event{Kind: trace.KindNoCDeliver, Unit: int32(sm),
				Arg: int64(delivered)})
		}
	}
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return pend[:delivered]
}

// Pending reports whether any responses remain undelivered. It scans the
// queues (O(numSMs), with numSMs = 15 at the paper's configuration): a
// shared counter would be O(1) but would race when workers deliver for
// distinct SMs concurrently.
func (n *Network) Pending() bool {
	for i := range n.sms {
		q := &n.sms[i].q
		if q.head != len(q.buf) {
			return true
		}
	}
	return false
}

// FlushStats folds the per-SM delivered-byte accumulators into the shared
// stats block. Call once, after the last Deliver (the GPU does it when
// assembling the final Result).
func (n *Network) FlushStats() {
	for i := range n.sms {
		n.st.BytesToSM += n.sms[i].bytesToSM
		n.sms[i].bytesToSM = 0
	}
}

// NextDeliveryCycle returns the earliest cycle after cycle at which any
// queued response could reach its SM, accounting for both the head
// response's ReadyCycle and the credit its SM still has to bank, or -1
// when no responses are queued. The event-driven loop uses it as one of
// the bounds on how far the clock may skip; it may be conservative
// (early), never late.
func (n *Network) NextDeliveryCycle(cycle int64) int64 {
	next := int64(-1)
	for sm := range n.sms {
		t := n.NextDeliveryCycleSM(sm, cycle)
		if t < 0 {
			continue
		}
		if t <= cycle+1 {
			return cycle + 1
		}
		if next < 0 || t < next {
			next = t
		}
	}
	return next
}

// NextDeliveryCycleSM is NextDeliveryCycle for a single SM's queue: the
// earliest cycle at which its head response could be delivered (clamped to
// cycle+1, conservative-early, never late), or -1 when the queue is empty.
// Per-SM state only — safe from that SM's worker goroutine; the parallel
// engine uses it to cap a worker's bulk idle-skip so no in-epoch delivery
// cycle is jumped over.
func (n *Network) NextDeliveryCycleSM(sm int, cycle int64) int64 {
	s := &n.sms[sm].smState
	q := &s.q
	if q.head == len(q.buf) {
		return -1
	}
	t := q.buf[q.head].ReadyCycle
	if deficit := arch.LineSizeBytes - s.credit; deficit > 0 {
		per := n.bytesPerCycle
		if tc := s.creditCycle + int64((deficit+per-1)/per); tc > t {
			t = tc
		}
	}
	if t <= cycle+1 {
		return cycle + 1
	}
	return t
}
