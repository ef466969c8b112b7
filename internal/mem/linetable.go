package mem

import (
	"math/bits"

	"apres/internal/arch"
)

// LineTable is an open-addressed hash table keyed by cache-line address: the
// simulator's replacement for map[arch.LineAddr]V on the per-access path
// (MSHR index, early-eviction set, LineSet's page directory, the SM's queued
// prefetch set, the memory system's in-flight fill index). Lookups are one
// multiplicative hash and a short linear probe over a flat slot array — no
// runtime map calls, no per-entry allocation. The zero value is an empty
// table; LineTable[struct{}] is a set.
//
// Deletion shifts the following cluster back over the hole instead of leaving
// a tombstone: the MSHR index inserts and deletes once per miss for the whole
// run, and tombstones would lengthen every probe until a rehash swept them.
// With backward shift a table that stays under half full never needs one.
//
// Reads (Get, Has, Len, Each) do not write, so a table nobody is mutating may
// be read from several goroutines (the parallel engine's frozen epochs).
type LineTable[V any] struct {
	slots []lineSlot[V] // power-of-two length, at most half full
	n     int
	shift uint // 64 - log2(len(slots)); the hash keeps the top bits
}

type lineSlot[V any] struct {
	key  arch.LineAddr
	val  V
	live bool
}

// minLineTableSlots is the smallest slot array; it keeps shift below 64.
const minLineTableSlots = 8

// NewLineTable returns a table that holds up to entries keys without growing
// (its slot array is at least twice that). A caller that bounds its own
// occupancy — the MSHR index never exceeds the MSHR count — therefore gets a
// table that is sized once and never rehashes.
func NewLineTable[V any](entries int) LineTable[V] {
	slots := minLineTableSlots
	for slots < 2*entries {
		slots *= 2
	}
	var t LineTable[V]
	t.resize(slots)
	return t
}

// resize installs an empty slot array of the given power-of-two length.
func (t *LineTable[V]) resize(slots int) {
	t.slots = make([]lineSlot[V], slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// home is the slot a key hashes to. Line addresses arrive as dense runs and
// fixed strides; the Fibonacci multiplier spreads both over the top bits.
func (t *LineTable[V]) home(k arch.LineAddr) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
}

// probe walks k's probe sequence and returns where it ends: the slot holding
// k, or the empty slot an insert of k would take. The slot array must exist.
func (t *LineTable[V]) probe(k arch.LineAddr) (slot int, found bool) {
	mask := len(t.slots) - 1
	i := t.home(k)
	for ; t.slots[i].live; i = (i + 1) & mask {
		if t.slots[i].key == k {
			return i, true
		}
	}
	return i, false
}

// find returns the slot holding k, or -1.
func (t *LineTable[V]) find(k arch.LineAddr) int {
	if t.n == 0 {
		return -1
	}
	if i, found := t.probe(k); found {
		return i
	}
	return -1
}

// Len returns the number of keys in the table.
func (t *LineTable[V]) Len() int { return t.n }

// Has reports whether k is in the table.
func (t *LineTable[V]) Has(k arch.LineAddr) bool { return t.find(k) >= 0 }

// Get returns the value stored under k.
func (t *LineTable[V]) Get(k arch.LineAddr) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k and reports whether k was already present (its value
// is then overwritten). The slot array doubles when the insert would take it
// past half full.
func (t *LineTable[V]) Put(k arch.LineAddr, v V) (existed bool) {
	if 2*(t.n+1) > len(t.slots) && !t.Has(k) {
		t.grow()
	}
	i, existed := t.probe(k)
	t.slots[i] = lineSlot[V]{key: k, val: v, live: true}
	if !existed {
		t.n++
	}
	return existed
}

func (t *LineTable[V]) grow() {
	old := t.slots
	t.resize(max(minLineTableSlots, 2*len(old)))
	for _, s := range old {
		if s.live {
			i, _ := t.probe(s.key)
			t.slots[i] = s
		}
	}
}

// Delete removes k, returning the value it held and whether it was present.
func (t *LineTable[V]) Delete(k arch.LineAddr) (V, bool) {
	i := t.find(k)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := t.slots[i].val
	// Backward shift: walk the rest of the cluster and pull back every entry
	// whose home lies at or before the hole (cyclically), so each remaining
	// key is still reachable from its home without crossing an empty slot.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].live; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = lineSlot[V]{}
	t.n--
	return v, true
}

// Each calls f for every entry, in slot order.
func (t *LineTable[V]) Each(f func(arch.LineAddr, V)) {
	for i := range t.slots {
		if t.slots[i].live {
			f(t.slots[i].key, t.slots[i].val)
		}
	}
}

// Clear empties the table in place, keeping its slot array.
func (t *LineTable[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// linePageBits sizes a LineSet page: 2^10 consecutive lines — 128 KiB of
// address space at 128-byte lines — in a 128-byte bitmap. Small pages keep a
// short run cheap when its warps sit megabytes apart (NW's inter-warp stride
// gives every warp a page of its own; 4 KiB pages made a scale-0.05 NW cell
// twice as slow as the hash table, in page zeroing), and a kernel's arrays
// are still only tens to hundreds of pages.
const linePageBits = 10

type linePage [1 << linePageBits / 64]uint64

// LineSet is a grow-only set of line addresses: one bit per line in bitmap
// pages found through a LineTable keyed by page number. Where a
// LineTable[struct{}] that only grows probes an ever larger, cache-missing
// slot array on every miss, this touches one word of a page the neighbouring
// lines share, found in a directory small enough to stay in the host's cache;
// last remembers the page of the previous Add, which nearby lines hit
// without a directory lookup. The zero value is an empty set.
type LineSet struct {
	pages   LineTable[*linePage]
	spare   []linePage // allocated, not yet in pages
	n       int
	lastKey arch.LineAddr
	last    *linePage
}

// Add inserts l and reports whether it was already present.
func (s *LineSet) Add(l arch.LineAddr) (existed bool) {
	if k := l >> linePageBits; s.last == nil || s.lastKey != k {
		p, ok := s.pages.Get(k)
		if !ok {
			if len(s.spare) == 0 {
				s.spare = make([]linePage, 16) // one allocation per 2 KiB
			}
			p, s.spare = &s.spare[0], s.spare[1:]
			s.pages.Put(k, p)
		}
		s.lastKey, s.last = k, p
	}
	word, bit := &s.last[l>>6%arch.LineAddr(len(s.last))], uint64(1)<<(l&63)
	existed = *word&bit != 0
	if !existed {
		*word |= bit
		s.n++
	}
	return existed
}

// Len returns the number of lines in the set.
func (s *LineSet) Len() int { return s.n }

// Clear empties the set in place, keeping its pages for the next fill.
func (s *LineSet) Clear() {
	s.pages.Each(func(_ arch.LineAddr, p *linePage) { *p = linePage{} })
	s.n = 0
}
