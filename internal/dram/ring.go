package dram

import (
	"math"
	"math/bits"

	"apres/internal/arch"
)

type eventKind uint8

const (
	evL2Hit eventKind = iota
	evDRAMFill
)

// event is one scheduled L2-hit or DRAM-fill completion. It lives in
// eventRing.slab from push to pop, linked into its bucket's list (and,
// afterwards, into the free list) through next.
type event struct {
	// cycle is when the event is due; seq is its push sequence number, the
	// deterministic tie-break among events of one cycle.
	cycle, seq int64
	// req is the request an evL2Hit answers; an evDRAMFill sets only req.Line
	// (its waiters sit in the L2's MSHR entry).
	req       arch.MemReq
	next      int32
	partition int32
	kind      eventKind
}

// noEvent is eventRing.head when nothing is stored: later than any cycle, so
// the idle test in Tick and the window walks need no emptiness check.
const noEvent = math.MaxInt64

// minRingBuckets keeps the occupancy bitmaps whole words.
const minRingBuckets = 64

// bucket is one intrusive list of slab slots; tail is meaningful only while
// head >= 0.
type bucket struct{ head, tail int32 }

// eventRing is the memory system's event queue: a calendar ring whose bucket
// cycle&mask lists, in push (= seq) order, the events that pop at cycle.
//
// Every stored event is due in [base, base+len(buckets)): base only moves
// forward (advance), and push doubles the ring when an event would fall
// outside. Under that one-lap invariant a bucket never mixes two cycles, so
// visiting occupied buckets in ring order from base IS (cycle, seq) order —
// also when a Tick jumps many laps ahead, because the walk goes from stored
// event to stored event, not from cycle to cycle.
//
// Buckets are lists threaded through the payload slab rather than slices of
// their own: a slice per bucket would allocate and regrow thousands of times
// per run where the slab grows a handful of times to the peak number of
// events in flight and is then recycled through the free list.
type eventRing struct {
	buckets []bucket
	// occ has bit b set iff buckets[b] is non-empty; fills has it set iff the
	// list holds at least one evDRAMFill. Buckets empty as a whole (detach),
	// so neither needs a count behind it.
	occ, fills []uint64
	mask       int64
	slab       []event
	free       int32 // head of the free-slot list, -1 when empty
	n          int   // events stored
	// head is the cycle of the earliest stored event (noEvent when empty),
	// cached so asking "is anything due?" is one compare.
	head int64
	// base is the first cycle that has not been popped yet.
	base int64
}

// newEventRing sizes the ring for events scheduled up to span cycles ahead.
func newEventRing(span int64) eventRing {
	r := eventRing{free: -1, head: noEvent}
	r.resize(span + 1)
	return r
}

// resize gives the ring at least size buckets (a power of two), all empty.
func (r *eventRing) resize(size int64) {
	n := int64(minRingBuckets)
	for n < size {
		n <<= 1
	}
	r.buckets = make([]bucket, n)
	for i := range r.buckets {
		r.buckets[i].head = -1
	}
	words := make([]uint64, 2*n/64)
	r.occ, r.fills = words[:n/64], words[n/64:]
	r.mask = n - 1
}

// grow doubles the ring until size buckets fit and moves every list to the
// bucket its cycle maps to under the new mask. Lists move whole: one lap of
// the old ring is less than one lap of the new, so two old buckets never
// land on one new bucket.
func (r *eventRing) grow(size int64) {
	old, oldFills, oldMask := r.buckets, r.fills, r.mask
	r.resize(max(size, 2*int64(len(old))))
	for ob := range old {
		if old[ob].head < 0 {
			continue
		}
		// The one cycle in [base, base+len(old)) that old bucket ob stood for.
		at := r.base + (int64(ob)-r.base)&oldMask
		nb := at & r.mask
		r.buckets[nb] = old[ob]
		r.occ[nb>>6] |= 1 << (nb & 63)
		if oldFills[ob>>6]&(1<<(ob&63)) != 0 {
			r.fills[nb>>6] |= 1 << (nb & 63)
		}
	}
}

// push stores e to pop at e.cycle — or at base when e.cycle has already been
// popped past (see MemSystem.Request), so it is due at the very next pop.
func (r *eventRing) push(e event) {
	at := max(e.cycle, r.base)
	if at-r.base > r.mask {
		r.grow(at - r.base + 1)
	}
	e.next = -1
	slot := r.free
	if slot >= 0 {
		r.free = r.slab[slot].next
		r.slab[slot] = e
	} else {
		slot = int32(len(r.slab))
		r.slab = append(r.slab, e)
	}
	b := at & r.mask
	bk := &r.buckets[b]
	if bk.head < 0 {
		bk.head = slot
		r.occ[b>>6] |= 1 << (b & 63)
	} else {
		r.slab[bk.tail].next = slot
	}
	bk.tail = slot
	if e.kind == evDRAMFill {
		r.fills[b>>6] |= 1 << (b & 63)
	}
	r.n++
	if at < r.head {
		r.head = at
	}
}

// detachHead unlinks the list of events due at head — the earliest stored
// cycle — and moves head on to the next occupied bucket. The caller walks the
// list through event.next, handing each slot to release once it is done with
// the payload.
func (r *eventRing) detachHead() (first int32) {
	b := r.head & r.mask
	first = r.buckets[b].head
	r.buckets[b].head = -1
	r.occ[b>>6] &^= 1 << (b & 63)
	r.fills[b>>6] &^= 1 << (b & 63)
	r.head = nextSet(r.occ, r.mask, r.head+1)
	return first
}

// release puts a detached slot on the free list. Its payload stays readable
// until the next push.
func (r *eventRing) release(slot int32) {
	r.slab[slot].next = r.free
	r.free = slot
	r.n--
}

// advance records that every cycle up to and including cycle has been
// popped.
func (r *eventRing) advance(cycle int64) {
	if cycle >= r.base {
		r.base = cycle + 1
	}
}

// first returns the first slot of the list due at cycle at (-1 when empty).
func (r *eventRing) first(at int64) int32 { return r.buckets[at&r.mask].head }

// after returns the earliest stored cycle later than at, or noEvent. With
// the buckets up to at still occupied (a walk, not a pop), a bit behind at
// reads as a cycle one lap on: past the end of the lap means there is none.
func (r *eventRing) after(at int64) int64 {
	if t := nextSet(r.occ, r.mask, at+1); t-r.base <= r.mask {
		return t
	}
	return noEvent
}

// nextFill returns the cycle of the earliest stored evDRAMFill, or noEvent.
func (r *eventRing) nextFill() int64 {
	if r.n == 0 {
		return noEvent
	}
	return nextSet(r.fills, r.mask, r.head)
}

// nextSet returns the earliest cycle >= from whose bucket bit is set in set,
// or noEvent when no bit is. The set bits must all stand for cycles within
// one lap of from — [from, from+mask] — which is what lets a bit's distance
// round the ring be read as a distance in time.
func nextSet(set []uint64, mask, from int64) int64 {
	s := from & mask
	w := int(s >> 6)
	// The rest of from's word, the other words in ring order, then the part
	// of from's word below from (a whole lap away).
	if x := set[w] >> (s & 63); x != 0 {
		return from + int64(bits.TrailingZeros64(x))
	}
	for i := 1; i < len(set); i++ {
		v := (w + i) & (len(set) - 1)
		if x := set[v]; x != 0 {
			return from + (int64(v<<6+bits.TrailingZeros64(x))-s)&mask
		}
	}
	if x := set[w] & (1<<(s&63) - 1); x != 0 {
		return from + (int64(w<<6+bits.TrailingZeros64(x))-s)&mask
	}
	return noEvent
}
