package arch

import (
	"testing"
	"testing/quick"
)

func TestLineRoundTrip(t *testing.T) {
	cases := []struct {
		addr Addr
		line LineAddr
	}{
		{0, 0},
		{127, 0},
		{128, 1},
		{129, 1},
		{4096, 32},
	}
	for _, tc := range cases {
		if got := tc.addr.Line(); got != tc.line {
			t.Errorf("Addr(%d).Line() = %d, want %d", tc.addr, got, tc.line)
		}
	}
	if got := LineAddr(3).Addr(); got != 384 {
		t.Errorf("LineAddr(3).Addr() = %d, want 384", got)
	}
}

func TestWarpMaskBasics(t *testing.T) {
	var m WarpMask
	if m.Has(0) || m.Count() != 0 {
		t.Fatal("zero mask should be empty")
	}
	m = m.Set(3).Set(47).Set(3)
	if !m.Has(3) || !m.Has(47) || m.Has(4) {
		t.Fatalf("membership wrong: %b", m)
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d, want 2", m.Count())
	}
	m = m.Clear(3)
	if m.Has(3) || m.Count() != 1 {
		t.Fatalf("clear failed: %b", m)
	}
}

func TestWarpMaskWarpsAscending(t *testing.T) {
	m := Bit(5) | Bit(0) | Bit(63)
	ws := m.Warps()
	want := []WarpID{0, 5, 63}
	if len(ws) != len(want) {
		t.Fatalf("got %v, want %v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("got %v, want %v", ws, want)
		}
	}
}

func TestStringers(t *testing.T) {
	if AccessLoad.String() != "load" || AccessStore.String() != "store" || AccessPrefetch.String() != "prefetch" {
		t.Error("AccessKind strings wrong")
	}
	if ResultHit.String() != "hit" || ResultMiss.String() != "miss" ||
		ResultMergedMSHR.String() != "merged" || ResultStall.String() != "stall" {
		t.Error("AccessResult strings wrong")
	}
	if AccessKind(99).String() == "" || AccessResult(99).String() == "" {
		t.Error("unknown values should still render")
	}
}

// Property: Count equals the length of Warps, and Set/Clear round-trip.
func TestQuickWarpMask(t *testing.T) {
	f := func(bits uint64, w uint8) bool {
		m := WarpMask(bits)
		if m.Count() != len(m.Warps()) {
			return false
		}
		id := WarpID(w % 64)
		if !m.Set(id).Has(id) {
			return false
		}
		if m.Clear(id).Has(id) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: walking a mask with Lowest and m &= m-1 visits exactly Warps(),
// and FirstWarps(n) holds exactly the warps below n.
func TestQuickWarpMaskBitScan(t *testing.T) {
	f := func(bits uint64, n uint8) bool {
		m := WarpMask(bits)
		want := m.Warps()
		i := 0
		for w := m; w != 0; w &= w - 1 {
			if i >= len(want) || w.Lowest() != want[i] {
				return false
			}
			i++
		}
		if i != len(want) {
			return false
		}
		first := FirstWarps(int(n % 65))
		for w := WarpID(0); w < 64; w++ {
			if first.Has(w) != (int(w) < int(n%65)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if WarpMask(0).Lowest() != 64 {
		t.Fatalf("Lowest of the empty mask = %d, want 64", WarpMask(0).Lowest())
	}
}

// Property: line address arithmetic is consistent.
func TestQuickLineArithmetic(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a % (1 << 40))
		l := addr.Line()
		back := l.Addr()
		return back <= addr && addr-back < LineSizeBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
