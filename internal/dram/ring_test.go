package dram

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"apres/internal/arch"
	"apres/internal/stats"
)

// checkRing verifies the ring's layout: every slab slot is on exactly one
// bucket list or on the free list exactly once; a bucket's occupancy bit is
// set iff its list is non-empty and its fill bit iff the list holds a fill;
// a list holds one cycle's events (or ones pushed for a cycle already
// popped), in seq order, and ends at the recorded tail; n and the cached
// head agree with what the lists hold.
func checkRing(t *testing.T, r *eventRing) {
	t.Helper()
	owner := make([]string, len(r.slab))
	claim := func(slot int32, who string) {
		if slot < 0 || int(slot) >= len(r.slab) {
			t.Fatalf("%s names slot %d outside the %d-slot slab", who, slot, len(r.slab))
		}
		if owner[slot] != "" {
			t.Fatalf("slot %d is held by both %s and %s", slot, owner[slot], who)
		}
		owner[slot] = who
	}
	live, head := 0, int64(noEvent)
	for b := range r.buckets {
		bit := uint64(1) << (b & 63)
		occ, fills := r.occ[b>>6]&bit != 0, r.fills[b>>6]&bit != 0
		bk := r.buckets[b]
		if occ != (bk.head >= 0) {
			t.Fatalf("bucket %d: occupancy bit %v, list head %d", b, occ, bk.head)
		}
		at := r.base + (int64(b)-r.base)&r.mask // the cycle bucket b stands for
		sawFill, last, lastSeq := false, int32(-1), int64(-1)
		for slot := bk.head; slot >= 0; slot = r.slab[slot].next {
			claim(slot, "a bucket list")
			e := &r.slab[slot]
			if e.cycle != at && e.cycle >= r.base {
				t.Fatalf("bucket %d (cycle %d) lists an event due at %d (base %d)", b, at, e.cycle, r.base)
			}
			if e.seq <= lastSeq {
				t.Fatalf("bucket %d lists seq %d after seq %d", b, e.seq, lastSeq)
			}
			sawFill = sawFill || e.kind == evDRAMFill
			last, lastSeq = slot, e.seq
			live++
		}
		if occ {
			head = min(head, at)
			if bk.tail != last {
				t.Fatalf("bucket %d: tail %d, list ends at %d", b, bk.tail, last)
			}
		}
		if fills != sawFill {
			t.Fatalf("bucket %d: fill bit %v, list holds a fill: %v", b, fills, sawFill)
		}
	}
	for slot := r.free; slot >= 0; slot = r.slab[slot].next {
		claim(slot, "the free list")
	}
	for slot, who := range owner {
		if who == "" {
			t.Fatalf("slot %d is neither live nor free", slot)
		}
	}
	if live != r.n || head != r.head {
		t.Fatalf("ring says %d events from cycle %d; its lists hold %d from cycle %d", r.n, r.head, live, head)
	}
}

// refEvent is the ring's definition: an event pops at the later of its cycle
// and the first unpopped cycle when it was pushed, ties in push order.
type refEvent struct {
	at, seq int64
	fill    bool
}

func refLess(a, b refEvent) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return cmp.Compare(a.seq, b.seq)
}

// maxScriptLap is the ring size at which runRingScript stops forcing growth.
const maxScriptLap = 1 << 10

// runRingScript drives a ring and the sorted-slice reference through the
// same pushes and pops, decoded two bytes at a time from ops, and fails at
// the first difference. Starting from the smallest ring, distances are
// chosen around its current size: the next cycle, the last bucket of the
// lap, one past it (growth with live events), several laps out, and cycles
// already popped; pops advance by one cycle, a lap less one, many laps, or
// to the last stored event (drain to empty). Before every third pop the
// window walk behind PeekWindowResponses must list what the pop then
// returns.
func runRingScript(t *testing.T, ops []byte) {
	t.Helper()
	r := newEventRing(0)
	var ref []refEvent
	var seq, now int64
	peak, pops := 0, 0
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%8, int64(ops[i+1])
		lap := int64(len(r.buckets))
		if lap >= maxScriptLap && (op == 3 || op == 4) {
			op = 1 // every such push at least doubles the ring: stop somewhere
		}
		if op < 6 {
			cycle := r.base
			switch op {
			case 1:
				cycle += arg
			case 2:
				cycle += lap - 1
			case 3:
				cycle += lap
			case 4:
				cycle += 2*lap + arg
			case 5:
				cycle -= 1 + arg%3
			}
			fill := arg&1 != 0
			e := event{cycle: cycle, seq: seq, req: arch.MemReq{PC: arch.PC(seq)}}
			if fill {
				e.kind = evDRAMFill
			}
			r.push(e)
			ref = append(ref, refEvent{at: max(cycle, r.base), seq: seq, fill: fill})
			seq++
			peak = max(peak, r.n)
		} else {
			to := now + 1
			if op == 6 {
				switch arg % 4 {
				case 1:
					to = now + lap - 1
				case 2:
					to = now + lap*(3+arg%5) + arg
				case 3:
					to = now + 1 + arg%16
				}
			} else if len(ref) > 0 {
				to = max(to, slices.MaxFunc(ref, refLess).at)
			}
			slices.SortFunc(ref, refLess)
			due := 0
			for due < len(ref) && ref[due].at <= to {
				due++
			}
			var peek []refEvent
			if pops%3 == 0 {
				for at := r.head; at <= to; at = r.after(at) {
					for slot := r.first(at); slot >= 0; slot = r.slab[slot].next {
						e := &r.slab[slot]
						peek = append(peek, refEvent{at: at, seq: e.seq, fill: e.kind == evDRAMFill})
					}
				}
				if !slices.Equal(peek, ref[:due]) {
					t.Fatalf("op %d: window walk to %d lists %v, want %v", i/2, to, peek, ref[:due])
				}
			}
			var got []refEvent
			for r.head <= to {
				at := r.head
				for slot := r.detachHead(); slot >= 0; {
					e := r.slab[slot]
					if e.req.PC != arch.PC(e.seq) {
						t.Fatalf("op %d: event seq %d carries the payload of seq %d", i/2, e.seq, e.req.PC)
					}
					got = append(got, refEvent{at: at, seq: e.seq, fill: e.kind == evDRAMFill})
					r.release(slot)
					slot = e.next
				}
			}
			r.advance(to)
			if !slices.Equal(got, ref[:due]) {
				t.Fatalf("op %d: pop to %d returned %v, want %v", i/2, to, got, ref[:due])
			}
			ref = ref[due:]
			now = to
			pops++
		}
		checkRing(t, &r)
		nextFill := int64(noEvent)
		for _, e := range ref {
			if e.fill {
				nextFill = min(nextFill, e.at)
			}
		}
		if got := r.nextFill(); got != nextFill {
			t.Fatalf("op %d: nextFill %d, want %d", i/2, got, nextFill)
		}
	}
	if len(r.slab) > peak {
		t.Fatalf("slab grew to %d slots for a peak of %d events stored", len(r.slab), peak)
	}
}

// FuzzEventRing checks the calendar ring against its definition (CI runs a
// short -fuzz smoke; `go test` replays the seeds).
func FuzzEventRing(f *testing.F) {
	// Next-cycle pushes popped one cycle at a time.
	f.Add([]byte{0, 0, 6, 0, 0, 1, 0, 2, 6, 0, 6, 0})
	// Last bucket of the lap, one past it (growth), then a lap-less-one pop.
	f.Add([]byte{2, 1, 3, 0, 1, 9, 6, 1, 6, 1, 7, 0})
	// Far pushes, a many-lap pop, drain to empty, refill, drain again.
	f.Add([]byte{4, 200, 4, 3, 1, 77, 6, 2, 7, 0, 0, 1, 1, 30, 2, 0, 7, 0})
	// Cycles already popped land in the next pop, behind what is due there.
	f.Add([]byte{0, 1, 6, 3, 5, 0, 5, 2, 0, 0, 6, 0})
	f.Fuzz(runRingScript)
}

// TestEventRingQuickCheck is the deterministic half of the fuzz property: a
// fixed seeded sweep of random scripts on every `go test`.
func TestEventRingQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 2*(20+rng.Intn(400)))
		rng.Read(ops)
		// Mostly pushes early on and mostly pops late, so rings fill up, grow
		// and drain instead of hovering near empty.
		for j := 0; j < len(ops); j += 2 {
			if rng.Intn(len(ops)) > j {
				ops[j] %= 6
			}
		}
		runRingScript(t, ops)
	}
}

// TestTickJumpMatchesStepping crosses the ring with the rest of the memory
// system: a Tick that jumps many laps ahead must return what ticking every
// cycle up to there returns, in the same order — with a store backlog that
// books DRAM slots far enough out to grow the ring while it holds events.
func TestTickJumpMatchesStepping(t *testing.T) {
	cfg := testConfig()
	load := func() (*MemSystem, int) {
		var st stats.Stats
		m := New(cfg, &st)
		lap := len(m.events.buckets)
		for i := 0; i < 64; i++ {
			m.Request(arch.MemReq{SM: i % 7, Warp: arch.WarpID(i), Line: arch.LineAddr(i % 48), Kind: arch.AccessLoad}, 0)
		}
		for i := 0; i < lap; i++ {
			m.Request(arch.MemReq{Line: arch.LineAddr(2 * i), Kind: arch.AccessStore}, 0)
		}
		for i := 0; i < 32; i++ {
			m.Request(arch.MemReq{SM: i % 7, Warp: arch.WarpID(i), Line: arch.LineAddr(100 + i), Kind: arch.AccessLoad}, 0)
		}
		checkRing(t, &m.events)
		return m, lap
	}
	stepped, lap := load()
	if len(stepped.events.buckets) == lap {
		t.Fatalf("the store backlog did not grow the %d-bucket ring", lap)
	}
	var want []Response
	end := int64(8 * len(stepped.events.buckets))
	for c := int64(0); c <= end; c++ {
		want = append(want, stepped.Tick(c)...)
	}
	jumped, _ := load()
	got := jumped.Tick(end)
	if len(want) != 96 || !slices.Equal(got, want) {
		t.Fatalf("one Tick(%d) returned %d responses, stepping returned %d (want 96, identical)", end, len(got), len(want))
	}
	if !jumped.Drained() || !stepped.Drained() {
		t.Fatal("responses were returned but the system is not drained")
	}
	checkRing(t, &jumped.events)
}
