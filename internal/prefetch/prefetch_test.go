package prefetch

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"apres/internal/arch"
	"apres/internal/config"
)

func TestNewBuildsConfiguredPrefetchers(t *testing.T) {
	cases := []struct {
		kind config.PrefetcherKind
		want string
	}{
		{config.PrefSTR, "str"},
		{config.PrefSLD, "sld"},
		{config.PrefSAP, "sap"},
	}
	for _, tc := range cases {
		p, err := New(config.Baseline().WithPrefetcher(tc.kind))
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if p.Name() != tc.want {
			t.Fatalf("got %q, want %q", p.Name(), tc.want)
		}
	}
	if p, err := New(config.Baseline()); err != nil || p != nil {
		t.Fatalf("PrefNone: got %v/%v, want nil/nil", p, err)
	}
	if _, err := New(config.Config{Prefetcher: "bogus"}); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

func TestSTRFiresAfterStrideConfirmation(t *testing.T) {
	p := NewSTR(8, 1)
	// Warps 0,1,2 access pc 0x10 with inter-warp stride 1024.
	if got := p.OnAccess(0x10, 0, 0, 1<<20, false); got != nil {
		t.Fatalf("first observation fired: %v", got)
	}
	if got := p.OnAccess(0x10, 1, 1, 1<<20+1024, false); got != nil {
		t.Fatalf("stride not yet confirmed but fired: %v", got)
	}
	got := p.OnAccess(0x10, 2, 2, 1<<20+2048, false)
	if len(got) != 1 {
		t.Fatalf("confirmed stride should fire 1 request, got %v", got)
	}
	want := arch.Addr(1<<20 + 2048 + 1024)
	if got[0].Addr != want {
		t.Fatalf("prefetch addr = %#x, want %#x", got[0].Addr, want)
	}
}

func TestSTRArbitrarilyLargeStride(t *testing.T) {
	p := NewSTR(8, 1)
	const stride = 1966080 // NW's stride magnitude from Table I
	p.OnAccess(0x20, 0, 0, 1<<30, false)
	p.OnAccess(0x20, 1, 1, 1<<30+stride, false)
	got := p.OnAccess(0x20, 2, 2, 1<<30+2*stride, false)
	if len(got) != 1 || got[0].Addr != arch.Addr(1<<30+3*stride) {
		t.Fatalf("large stride prefetch wrong: %v", got)
	}
}

func TestSTRStrideMismatchResets(t *testing.T) {
	p := NewSTR(8, 1)
	p.OnAccess(0x10, 0, 0, 1000, false)
	p.OnAccess(0x10, 1, 1, 2000, false)
	p.OnAccess(0x10, 2, 2, 3000, false) // confirmed, fires
	if got := p.OnAccess(0x10, 3, 3, 9999, false); got != nil {
		t.Fatalf("mismatched stride fired: %v", got)
	}
}

func TestSTRIgnoresSameWarpRepeat(t *testing.T) {
	p := NewSTR(8, 1)
	p.OnAccess(0x10, 0, 0, 1000, false)
	if got := p.OnAccess(0x10, 0, 0, 5000, false); got != nil {
		t.Fatalf("same-warp repeat fired: %v", got)
	}
}

func TestSTRZeroStrideNeverFires(t *testing.T) {
	p := NewSTR(8, 2)
	for w := arch.WarpID(0); w < 6; w++ {
		if got := p.OnAccess(0x10, w, w, 4096, false); got != nil {
			t.Fatalf("zero stride fired: %v", got)
		}
	}
}

func TestSTRTableEviction(t *testing.T) {
	p := NewSTR(2, 1)
	p.OnAccess(0x10, 0, 0, 100, false)
	p.OnAccess(0x20, 0, 0, 200, false)
	p.OnAccess(0x30, 0, 0, 300, false) // evicts 0x10 (LRU)
	// 0x10 must start from scratch: two observations needed again.
	p.OnAccess(0x10, 1, 1, 1100, false)
	if got := p.OnAccess(0x10, 2, 2, 2100, false); got != nil {
		t.Fatalf("evicted entry retained stride state: %v", got)
	}
}

func TestSLDFiresAfterTwoLinesOfMacroBlock(t *testing.T) {
	p := NewSLD(16)
	base := arch.Addr(4 * 128 * 10) // macro-block aligned
	if got := p.OnAccess(0x10, 0, 0, base, false); got != nil {
		t.Fatalf("one line fired: %v", got)
	}
	got := p.OnAccess(0x10, 1, 1, base+128, false)
	if len(got) != 2 {
		t.Fatalf("two lines touched: got %d prefetches, want 2", len(got))
	}
	wantA, wantB := base+256, base+384
	addrs := map[arch.Addr]bool{got[0].Addr: true, got[1].Addr: true}
	if !addrs[wantA] || !addrs[wantB] {
		t.Fatalf("prefetched %v, want %#x and %#x", addrs, wantA, wantB)
	}
}

func TestSLDDoesNotRefireSameBlock(t *testing.T) {
	p := NewSLD(16)
	base := arch.Addr(0)
	p.OnAccess(0x10, 0, 0, base, false)
	p.OnAccess(0x10, 1, 1, base+128, false)
	if got := p.OnAccess(0x10, 2, 2, base+256, false); got != nil {
		t.Fatalf("macro block refired: %v", got)
	}
}

func TestSLDCannotCoverLargeStrides(t *testing.T) {
	// Accesses striding by 1024 B never put two lines in one 512 B macro
	// block, so SLD must stay silent — the paper's explanation for STR
	// beating SLD.
	p := NewSLD(64)
	for i := 0; i < 32; i++ {
		if got := p.OnAccess(0x10, arch.WarpID(i), arch.WarpID(i), arch.Addr(i*1024), false); got != nil {
			t.Fatalf("SLD fired on 1 KB strides: %v", got)
		}
	}
}

func TestSAPOnAccessIsSilent(t *testing.T) {
	p := NewSAP(10, 32, true)
	if got := p.OnAccess(0x10, 0, 0, 100, false); got != nil {
		t.Fatalf("SAP.OnAccess fired: %v", got)
	}
}

func targets(ws ...arch.WarpID) []Target {
	ts := make([]Target, len(ws))
	for i, w := range ws {
		ts[i] = Target{Slot: w, Wid: w}
	}
	return ts
}

func TestSAPGroupPrefetchAddresses(t *testing.T) {
	p := NewSAP(10, 32, true)
	const stride = 1000
	// Build history: warp 10 missed at 2800 - paper's Figure 9 example
	// (after two observations to confirm stride).
	p.OnGroupMiss(200, 8, 800, nil, 0)
	p.OnGroupMiss(200, 10, 2800, nil, 1) // stride (2800-800)/2 = 1000 stored
	// Warp 2 misses at 2000: stride (2000-2800)/(2-10) = 100... use
	// paper numbers: prev warp 10 @ 2800, current warp 2 @ 2000
	// => stride = (2000-2800)/(2-10) = 100.
	// The stored stride from the first two calls is 1000, so this
	// mismatches and must not fire.
	if got := p.OnGroupMiss(200, 2, 2000, targets(0, 1, 3), 2); got != nil {
		t.Fatalf("stride mismatch fired: %v", got)
	}
	// Next observation with stride 100 matches the replaced value:
	// warp 3 @ 2100 => (2100-2000)/(3-2) = 100.
	got := p.OnGroupMiss(200, 3, 2100, targets(1, 2, 4), 3)
	if len(got) != 3 {
		t.Fatalf("got %d prefetches, want 3", len(got))
	}
	wants := map[arch.WarpID]arch.Addr{
		1: 2100 - 2*100,
		2: 2100 - 1*100,
		4: 2100 + 1*100,
	}
	for _, r := range got {
		if wants[r.Warp] != r.Addr {
			t.Fatalf("warp %d: addr %#x, want %#x", r.Warp, r.Addr, wants[r.Warp])
		}
	}
}

func TestSAPExcludesMissWarpItself(t *testing.T) {
	p := NewSAP(10, 32, true)
	p.OnGroupMiss(0x10, 0, 0, nil, 0)
	p.OnGroupMiss(0x10, 1, 512, nil, 1)
	got := p.OnGroupMiss(0x10, 2, 1024, targets(2, 3), 2)
	for _, r := range got {
		if r.Warp == 2 {
			t.Fatal("SAP prefetched for the missing warp itself")
		}
	}
	if len(got) != 1 || got[0].Warp != 3 {
		t.Fatalf("got %v, want single prefetch for warp 3", got)
	}
}

func TestSAPStrideGateAblation(t *testing.T) {
	p := NewSAP(10, 32, false) // gate off
	p.OnGroupMiss(0x10, 0, 0, nil, 0)
	p.OnGroupMiss(0x10, 1, 512, nil, 1)
	// Third call has stride 256 (mismatch with 512) but gate is off.
	got := p.OnGroupMiss(0x10, 2, 768, targets(3), 2)
	if len(got) != 1 {
		t.Fatalf("gate-off should still fire on mismatch, got %v", got)
	}
}

func TestSAPDRQCapacityPerCycle(t *testing.T) {
	p := NewSAP(10, 2, true)
	fired := 0
	for i := 0; i < 5; i++ {
		p.OnGroupMiss(arch.PC(0x10+uint32(i)*0x10), 0, arch.Addr(i*128), nil, 42)
		fired++
	}
	// Only 2 of the 5 same-cycle events were admitted; verify by
	// checking the PT learned only the first two PCs.
	if p.lookup(0x10) == nil || p.lookup(0x20) == nil {
		t.Fatal("first two events should be admitted")
	}
	if p.lookup(0x30) != nil {
		t.Fatal("DRQ-overflow event should be dropped")
	}
	// A new cycle resets occupancy.
	p.OnGroupMiss(0x50, 0, 0, nil, 43)
	if p.lookup(0x50) == nil {
		t.Fatal("new cycle should admit events again")
	}
}

func TestSAPPTReplacementLRU(t *testing.T) {
	p := NewSAP(2, 32, true)
	p.OnGroupMiss(0x10, 0, 0, nil, 0)
	p.OnGroupMiss(0x20, 0, 0, nil, 1)
	p.OnGroupMiss(0x10, 1, 128, nil, 2) // touch 0x10 so 0x20 is LRU
	p.OnGroupMiss(0x30, 0, 0, nil, 3)   // evicts 0x20
	if p.lookup(0x20) != nil {
		t.Fatal("LRU entry 0x20 should be evicted")
	}
	if p.lookup(0x10) == nil || p.lookup(0x30) == nil {
		t.Fatal("entries 0x10 and 0x30 should be resident")
	}
}

// Property: SAP prefetch addresses are always the miss address plus the
// warp-distance times the stride.
func TestQuickSAPAddressArithmetic(t *testing.T) {
	f := func(strideSeed uint16, baseSeed uint32) bool {
		stride := int64(strideSeed)%4096 + 128
		base := int64(baseSeed)%(1<<28) + (1 << 29)
		p := NewSAP(10, 32, true)
		p.OnGroupMiss(0x10, 0, arch.Addr(base), nil, 0)
		p.OnGroupMiss(0x10, 1, arch.Addr(base+stride), nil, 1)
		got := p.OnGroupMiss(0x10, 2, arch.Addr(base+2*stride), targets(3, 5), 2)
		if len(got) != 2 {
			return false
		}
		for _, r := range got {
			want := base + 2*stride + (int64(r.Warp)-2)*stride
			if int64(r.Addr) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSAPNearestTargetsMatchSortSlice holds OnGroupMiss's closest-warps
// selection (a bounded insertion sort into a fixed array) to the definition
// it replaced: a fresh copy of the group ordered by sort.Slice on (distance
// to the missing warp, logical ID), cut to maxTargetsPerEvent. The second
// call of each pair must not allocate.
func TestSAPNearestTargetsMatchSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewSAP(10, 32, true)
	const pc, stride = 0x40, 4352
	addrOf := func(w arch.WarpID) arch.Addr { return arch.Addr(1<<30 + int64(w)*stride) }
	p.OnGroupMiss(pc, 0, addrOf(0), nil, 0)
	p.OnGroupMiss(pc, 1, addrOf(1), nil, 1) // stride stored and confirmed
	prev := arch.WarpID(1)
	for round := int64(2); round < 300; round++ {
		// A group of distinct logical warp IDs in random order, as slots hold
		// them after CTA refill.
		wids := rng.Perm(200)[:13+rng.Intn(36)]
		group := make([]Target, len(wids))
		for i, w := range wids {
			group[i] = Target{Slot: arch.WarpID(i), Wid: arch.WarpID(w)}
		}
		miss := group[rng.Intn(len(group))].Wid
		if miss == prev {
			continue // the same warp twice in a row observes no stride
		}
		prev = miss
		want := slices.Clone(group)
		sort.Slice(want, func(i, j int) bool {
			di, dj := abs64(int64(want[i].Wid)-int64(miss)), abs64(int64(want[j].Wid)-int64(miss))
			if di != dj {
				return di < dj
			}
			return want[i].Wid < want[j].Wid
		})
		var wantReqs []Request
		for _, tg := range want[:maxTargetsPerEvent] {
			if tg.Wid != miss {
				wantReqs = append(wantReqs, Request{Addr: addrOf(tg.Wid), Warp: tg.Slot, PC: pc})
			}
		}
		before := slices.Clone(group)
		got := p.OnGroupMiss(pc, miss, addrOf(miss), group, round)
		if !slices.Equal(got, wantReqs) {
			t.Fatalf("round %d: requests %v, want %v", round, got, wantReqs)
		}
		if !slices.Equal(group, before) {
			t.Fatalf("round %d: OnGroupMiss reordered the caller's group", round)
		}
	}
	group := targets(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
	cycle := int64(1000)
	if a := testing.AllocsPerRun(20, func() {
		cycle++
		miss := arch.WarpID(7 + 2*(cycle%2)) // alternate: the same warp twice observes no stride
		if len(p.OnGroupMiss(pc, miss, addrOf(miss), group, cycle)) == 0 {
			t.Fatal("steady-state group miss issued nothing")
		}
	}); a != 0 {
		t.Fatalf("steady-state OnGroupMiss allocated %v times per call", a)
	}
}

// TestSAPNearestTargetsMatchFullSort holds nearestTargets to the code it
// replaced — slices.SortFunc over the whole group by (distance, logical ID),
// cut to maxTargetsPerEvent — for groups of 1 to 64 distinct logical warp IDs
// with the missing warp below, inside, above and absent from them.
func TestSAPNearestTargetsMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewSAP(10, 32, true)
	for size := 1; size <= 64; size++ {
		for round := 0; round < 50; round++ {
			group := make([]Target, size)
			for i, w := range rng.Perm(300)[:size] {
				group[i] = Target{Slot: arch.WarpID(i), Wid: arch.WarpID(100 + w)}
			}
			var miss arch.WarpID
			switch round % 4 {
			case 0:
				miss = arch.WarpID(rng.Intn(100)) // below every member
			case 1:
				miss = arch.WarpID(400 + rng.Intn(100)) // above every member
			case 2:
				miss = group[rng.Intn(size)].Wid
			default:
				miss = arch.WarpID(100 + rng.Intn(300)) // in range, member or not
			}
			want := slices.Clone(group)
			slices.SortFunc(want, func(a, b Target) int {
				da, db := abs64(int64(a.Wid)-int64(miss)), abs64(int64(b.Wid)-int64(miss))
				if da != db {
					return cmp.Compare(da, db)
				}
				return cmp.Compare(a.Wid, b.Wid)
			})
			want = want[:min(size, maxTargetsPerEvent)]
			if got := p.nearestTargets(group, miss); !slices.Equal(got, want) {
				t.Fatalf("size %d miss %d: nearest %v, full sort %v", size, miss, got, want)
			}
		}
	}
}

func TestSTROnAccessReusesItsBuffer(t *testing.T) {
	p := NewSTR(16, 2)
	w := arch.WarpID(0)
	if a := testing.AllocsPerRun(20, func() {
		w++
		p.OnAccess(0x10, w, w, arch.Addr(1<<20+int64(w)*4352), false)
	}); a != 0 {
		t.Fatalf("steady-state STR.OnAccess allocated %v times per call", a)
	}
	got := p.OnAccess(0x10, 100, 5, arch.Addr(1<<20+100*4352), false)
	want := []Request{
		{Addr: arch.Addr(1<<20 + 101*4352), Warp: 5, PC: 0x10},
		{Addr: arch.Addr(1<<20 + 102*4352), Warp: 5, PC: 0x10},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("requests %v, want %v", got, want)
	}
}
