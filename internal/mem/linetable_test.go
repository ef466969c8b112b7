package mem

import (
	"math/rand"
	"testing"

	"apres/internal/arch"
)

// tableModel drives a LineTable and the map[arch.LineAddr]V it replaced
// through the same operations and fails on the first disagreement.
type tableModel struct {
	t     *testing.T
	table LineTable[int]
	ref   map[arch.LineAddr]int
}

func newTableModel(t *testing.T, table LineTable[int]) *tableModel {
	return &tableModel{t: t, table: table, ref: map[arch.LineAddr]int{}}
}

func (m *tableModel) put(k arch.LineAddr, v int) {
	m.t.Helper()
	_, want := m.ref[k]
	if got := m.table.Put(k, v); got != want {
		m.t.Fatalf("Put(%#x): existed=%v, map says %v", k, got, want)
	}
	m.ref[k] = v
}

func (m *tableModel) get(k arch.LineAddr) {
	m.t.Helper()
	wantV, want := m.ref[k]
	gotV, got := m.table.Get(k)
	if got != want || gotV != wantV {
		m.t.Fatalf("Get(%#x) = (%d, %v), map says (%d, %v)", k, gotV, got, wantV, want)
	}
	if m.table.Has(k) != want {
		m.t.Fatalf("Has(%#x) = %v, map says %v", k, !want, want)
	}
}

func (m *tableModel) del(k arch.LineAddr) {
	m.t.Helper()
	wantV, want := m.ref[k]
	gotV, got := m.table.Delete(k)
	if got != want || gotV != wantV {
		m.t.Fatalf("Delete(%#x) = (%d, %v), map says (%d, %v)", k, gotV, got, wantV, want)
	}
	delete(m.ref, k)
}

// check compares the whole contents: length, every map key, and Each.
func (m *tableModel) check() {
	m.t.Helper()
	if m.table.Len() != len(m.ref) {
		m.t.Fatalf("Len = %d, map has %d", m.table.Len(), len(m.ref))
	}
	for k := range m.ref {
		m.get(k)
	}
	seen := 0
	m.table.Each(func(k arch.LineAddr, v int) {
		seen++
		if want, ok := m.ref[k]; !ok || want != v {
			m.t.Fatalf("Each visited (%#x, %d), map says (%d, %v)", k, v, want, ok)
		}
	})
	if seen != len(m.ref) {
		m.t.Fatalf("Each visited %d entries, map has %d", seen, len(m.ref))
	}
}

// homeOf finds a key that hashes to the wanted slot of tb, starting the
// search at from, so tests can build clusters where they want them.
func homeOf(tb *LineTable[int], slot int, from arch.LineAddr) arch.LineAddr {
	for k := from; ; k++ {
		if tb.home(k) == slot {
			return k
		}
	}
}

// runOps interprets data as a put/get/delete program over a small key space
// (collisions and clusters are the point), checking every step against the
// map.
func runOps(t *testing.T, table LineTable[int], data []byte) {
	m := newTableModel(t, table)
	for i := 0; i+1 < len(data); i += 2 {
		// 64 dense keys, 64 keys a large stride apart, and the extremes.
		k := arch.LineAddr(data[i+1] & 63)
		switch {
		case data[i+1] >= 0xFE:
			k = ^arch.LineAddr(0) - arch.LineAddr(data[i+1]&1)
		case data[i+1]&64 != 0:
			k = k << 40
		}
		switch data[i] % 4 {
		case 0, 1:
			m.put(k, i)
		case 2:
			m.del(k)
		case 3:
			m.get(k)
		}
	}
	m.check()
}

func FuzzLineTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 1, 0, 1})
	f.Add([]byte{0, 0xFF, 0, 0xFE, 2, 0xFF, 3, 0xFE, 0, 0})
	f.Add([]byte{0, 65, 0, 66, 0, 67, 2, 66, 0, 66, 2, 65, 3, 67})
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, LineTable[int]{}, data)      // grows from nothing
		runOps(t, NewLineTable[int](64), data) // never needs to
	})
}

// TestLineTableQuickCheck is the fuzz target's fixed-seed sibling: long random
// programs over key spaces from tiny (every operation collides) to wide
// (growth), so tier-1 covers the table without the fuzzer.
func TestLineTableQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, keys := range []int{3, 17, 200, 5000} {
		m := newTableModel(t, LineTable[int]{})
		for op := 0; op < 20000; op++ {
			k := arch.LineAddr(rng.Intn(keys)) * 0x10001
			switch rng.Intn(5) {
			case 0, 1:
				m.put(k, op)
			case 2, 3:
				m.del(k)
			case 4:
				m.get(k)
			}
		}
		m.check()
	}
}

// TestLineTableWrapAroundCluster builds a cluster that runs off the end of the
// slot array onto its start, then deletes from the middle: backward shift has
// to carry entries across the wrap and must not move one in front of its
// home.
func TestLineTableWrapAroundCluster(t *testing.T) {
	m := newTableModel(t, NewLineTable[int](8)) // 16 slots
	last := len(m.table.slots) - 1
	var cluster []arch.LineAddr
	next := arch.LineAddr(1)
	// Three keys whose home is the last slot, two whose home is the one
	// before, and one that lives at slot 0 by right.
	for _, slot := range []int{last, last - 1, last, 0, last - 1, last} {
		k := homeOf(&m.table, slot, next)
		next = k + 1
		cluster = append(cluster, k)
		m.put(k, int(k))
	}
	if !m.table.slots[0].live || !m.table.slots[1].live {
		t.Fatal("cluster did not wrap past the end of the slot array")
	}
	m.check()
	for _, victim := range []int{2, 0, 3, 5, 1, 4} {
		m.del(cluster[victim])
		m.check()
		// Delete-then-reinsert lands in a valid position again.
		m.put(cluster[victim], -1)
		m.check()
		m.del(cluster[victim])
	}
	if m.table.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.table.Len())
	}
	for i, s := range m.table.slots {
		if s.live {
			t.Fatalf("slot %d still live in an empty table", i)
		}
	}
}

// TestLineTableFixedCapacityNeverGrows is the MSHR index's contract: a table
// sized for n entries holds exactly n — through any amount of churn at full
// occupancy — in the slot array it was built with.
func TestLineTableFixedCapacityNeverGrows(t *testing.T) {
	for _, mshrMax := range []int{1, 4, 64, 100, 256} {
		m := newTableModel(t, NewLineTable[int](mshrMax))
		slots := len(m.table.slots)
		if slots < 2*mshrMax {
			t.Fatalf("%d entries: %d slots, want at least twice the entries", mshrMax, slots)
		}
		base := &m.table.slots[0]
		live := make([]arch.LineAddr, 0, mshrMax)
		next := arch.LineAddr(0)
		rng := rand.New(rand.NewSource(int64(mshrMax)))
		for round := 0; round < 50*mshrMax; round++ {
			for len(live) < mshrMax { // fill to exactly mshrMax
				m.put(next*33, round)
				live = append(live, next*33)
				next++
			}
			i := rng.Intn(len(live))
			m.del(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		m.check()
		if len(m.table.slots) != slots || &m.table.slots[0] != base {
			t.Fatalf("%d entries: slot array was reallocated (%d -> %d slots)", mshrMax, slots, len(m.table.slots))
		}
	}
}

func TestLineTableGrowthAndClear(t *testing.T) {
	m := newTableModel(t, LineTable[int]{})
	m.get(7) // the zero value is an empty table
	m.del(7)
	for k := arch.LineAddr(0); k < 3000; k++ {
		m.put(k*128, int(k))
	}
	m.check()
	slots := len(m.table.slots)
	m.table.Clear()
	m.ref = map[arch.LineAddr]int{}
	m.check()
	if len(m.table.slots) != slots {
		t.Fatalf("Clear changed the slot array: %d -> %d", slots, len(m.table.slots))
	}
	if n := testing.AllocsPerRun(1, func() {
		for k := arch.LineAddr(0); k < 3000; k++ {
			m.table.Put(k*128, 1)
		}
		m.table.Clear()
	}); n != 0 {
		t.Fatalf("refilling a cleared table allocated %v times", n)
	}
}

// runSetOps drives a LineSet and the LineTable[struct{}] it replaced as the
// L1's miss-classification set through the same adds and clears: Add must
// answer what Put answered, and Len must agree after every step. Keys are
// dense runs, page-crossing strides and the extremes of the address space.
func runSetOps(t *testing.T, data []byte) {
	var set LineSet
	var ref LineTable[struct{}]
	for i := 0; i+1 < len(data); i += 2 {
		k := arch.LineAddr(data[i+1])
		switch data[i] % 8 {
		case 0:
			k <<= linePageBits - 3 // eight keys to a page, 32 pages
		case 1:
			k = ^arch.LineAddr(0) - k
		case 2:
			k *= 1 << 40
		case 3:
			if data[i+1] == 0 {
				set.Clear()
				ref.Clear()
				continue
			}
		}
		if got, want := set.Add(k), ref.Put(k, struct{}{}); got != want {
			t.Fatalf("op %d: Add(%#x) existed=%v, table says %v", i/2, k, got, want)
		}
		if set.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, table has %d", i/2, set.Len(), ref.Len())
		}
	}
	// Every key the table holds is in the set, and nothing else is.
	n := set.Len()
	ref.Each(func(k arch.LineAddr, _ struct{}) {
		if !set.Add(k) {
			t.Fatalf("%#x is in the table but was not in the set", k)
		}
	})
	if set.Len() != n {
		t.Fatalf("re-adding the table's keys grew the set from %d to %d", n, set.Len())
	}
}

func FuzzLineSet(f *testing.F) {
	f.Add([]byte{4, 1, 4, 2, 4, 1, 0, 1, 0, 2, 0, 1})
	f.Add([]byte{1, 0, 1, 0, 2, 255, 2, 255, 3, 0, 1, 0})
	f.Add([]byte{0, 255, 0, 254, 3, 0, 0, 255})
	f.Fuzz(runSetOps)
}

// TestLineSetQuickCheck is FuzzLineSet's fixed-seed sibling, plus the reset
// contract: a cleared set refills without allocating.
func TestLineSetQuickCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		data := make([]byte, 2+rng.Intn(4000))
		rng.Read(data)
		runSetOps(t, data)
	}
	var set LineSet
	fill := func() {
		for k := arch.LineAddr(0); k < 3000; k++ {
			set.Add(k * 34) // KM's 4352-byte stride, in lines
		}
	}
	fill()
	if set.Len() != 3000 {
		t.Fatalf("Len = %d after 3000 distinct adds", set.Len())
	}
	if n := testing.AllocsPerRun(1, func() {
		set.Clear()
		fill()
	}); n != 0 {
		t.Fatalf("refilling a cleared set allocated %v times", n)
	}
}
