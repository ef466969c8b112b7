package sched

import (
	"testing"

	"apres/internal/arch"
	"apres/internal/config"
)

func mask(ws ...arch.WarpID) arch.WarpMask {
	var m arch.WarpMask
	for _, w := range ws {
		m = m.Set(w)
	}
	return m
}

func TestNewBuildsEveryConfiguredScheduler(t *testing.T) {
	kinds := []config.SchedulerKind{
		config.SchedLRR, config.SchedGTO, config.SchedTwoLevel,
		config.SchedCCWS, config.SchedMASCAR, config.SchedPA, config.SchedLAWS,
	}
	for _, k := range kinds {
		cfg := config.Baseline().WithScheduler(k)
		s, err := New(cfg, 48, nil)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if s.Name() != string(k) {
			t.Fatalf("built %q for kind %q", s.Name(), k)
		}
	}
	if _, err := New(config.Config{Scheduler: "bogus"}, 48, nil); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestLRRRotates(t *testing.T) {
	s := NewLRR(4)
	all := mask(0, 1, 2, 3)
	var got []arch.WarpID
	for i := 0; i < 8; i++ {
		w, ok := s.Pick(all, int64(i))
		if !ok {
			t.Fatal("no warp picked from full ready set")
		}
		got = append(got, w)
	}
	want := []arch.WarpID{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestLRRSkipsNotReady(t *testing.T) {
	s := NewLRR(4)
	w, ok := s.Pick(mask(2), 0)
	if !ok || w != 2 {
		t.Fatalf("got %d/%v, want 2", w, ok)
	}
	w, _ = s.Pick(mask(0, 2), 1)
	if w != 0 {
		t.Fatalf("after 2, pointer should wrap to 3,0: got %d, want 0", w)
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	s := NewGTO(4)
	w, _ := s.Pick(mask(1, 3), 0)
	if w != 1 {
		t.Fatalf("first pick = %d, want oldest ready (1)", w)
	}
	// Greedy: stays on 1 while ready even if 0 becomes ready.
	w, _ = s.Pick(mask(0, 1, 3), 1)
	if w != 1 {
		t.Fatalf("greedy pick = %d, want 1", w)
	}
	// 1 stalls: fall back to oldest ready.
	w, _ = s.Pick(mask(0, 3), 2)
	if w != 0 {
		t.Fatalf("fallback pick = %d, want 0", w)
	}
}

func TestTwoLevelIssuesWithinGroupFirst(t *testing.T) {
	s := NewTwoLevel(16, 4) // groups {0-3},{4-7},...
	w, _ := s.Pick(mask(1, 5, 9), 0)
	if w != 1 {
		t.Fatalf("pick = %d, want group-0 warp 1", w)
	}
	// Group 0 blocked: must move to group of warp 5.
	w, _ = s.Pick(mask(5, 9), 1)
	if w != 5 {
		t.Fatalf("pick = %d, want 5", w)
	}
	// Stays in group 1 while it has ready warps.
	w, _ = s.Pick(mask(6, 9), 2)
	if w != 6 {
		t.Fatalf("pick = %d, want 6 (same group)", w)
	}
}

func TestPAGroupsAreNonConsecutive(t *testing.T) {
	s := NewPA(16, 4) // groups by w%4
	// Active group 0 = {0,4,8,12}.
	w, _ := s.Pick(mask(4, 1, 2), 0)
	if w != 4 {
		t.Fatalf("pick = %d, want 4 (group 0 member)", w)
	}
	// Consecutive warps 0 and 1 must be in different groups.
	for _, g := range s.groups {
		if g.Has(0) && g.Has(1) {
			t.Fatal("PA put consecutive warps in the same group")
		}
	}
}

func TestCCWSThrottlesLostLocalityLosers(t *testing.T) {
	const n = 16
	s := NewCCWS(n, 8, 100, 16, nil)
	// Warps 0-3 lose locality massively: evict lines they owned, then
	// miss on them.
	for w := arch.WarpID(0); w < 4; w++ {
		for i := 0; i < 8; i++ {
			l := arch.LineAddr(int(w)*100 + i)
			s.OnLineEvicted(w, l)
			s.OnCacheResult(w, 0x10, l, false, NoGroup)
		}
	}
	if s.Score(0) <= 100 {
		t.Fatalf("score(0) = %d, want raised above base", s.Score(0))
	}
	elig := s.eligible()
	if !elig.Has(0) {
		t.Fatal("highest-scoring warp must stay eligible")
	}
	if elig.Count() == n {
		t.Fatal("throttling should exclude some low-score warps")
	}
	if elig.Count() < minEligible {
		t.Fatalf("eligible count %d below floor %d", elig.Count(), minEligible)
	}
	// The excluded warps must not be pickable.
	excluded := arch.WarpMask(0)
	for w := arch.WarpID(0); w < n; w++ {
		if !elig.Has(w) {
			excluded = excluded.Set(w)
		}
	}
	if _, ok := s.Pick(excluded, 0); ok {
		t.Fatal("picked a throttled warp")
	}
}

func TestCCWSScoreCap(t *testing.T) {
	s := NewCCWS(8, 8, 100, 16, nil)
	for i := 0; i < 100; i++ {
		l := arch.LineAddr(i)
		s.OnLineEvicted(0, l)
		s.OnCacheResult(0, 0x10, l, false, NoGroup)
	}
	if s.Score(0) > 8*100 {
		t.Fatalf("score %d exceeds cap", s.Score(0))
	}
}

func TestCCWSScoreDecays(t *testing.T) {
	s := NewCCWS(2, 8, 100, 16, nil)
	s.OnLineEvicted(0, 1)
	s.OnCacheResult(0, 0x10, 1, false, NoGroup)
	raised := s.Score(0)
	s.Pick(mask(0, 1), 1000) // decay happens on Pick
	if s.Score(0) >= raised {
		t.Fatalf("score did not decay: %d -> %d", raised, s.Score(0))
	}
	s.Pick(mask(0, 1), 100000)
	if s.Score(0) != 100 {
		t.Fatalf("score should decay to base, got %d", s.Score(0))
	}
}

func TestCCWSVTAHitRequiresOwnEviction(t *testing.T) {
	s := NewCCWS(2, 8, 100, 16, nil)
	s.OnLineEvicted(1, 7) // warp 1 owned the line
	s.OnCacheResult(0, 0x10, 7, false, NoGroup)
	if s.Score(0) != 100 {
		t.Fatalf("warp 0 score changed on another warp's eviction: %d", s.Score(0))
	}
	s.OnCacheResult(1, 0x10, 7, false, NoGroup)
	if s.Score(1) != 200 {
		t.Fatalf("warp 1 VTA hit: score = %d, want 200", s.Score(1))
	}
}

type fakeView struct {
	saturated bool
	memNext   map[arch.WarpID]bool
}

func (v *fakeView) MemSaturated() bool           { return v.saturated }
func (v *fakeView) NextIsMem(w arch.WarpID) bool { return v.memNext[w] }

func TestMASCARBehavesLikeGTOUnsaturated(t *testing.T) {
	v := &fakeView{}
	s := NewMASCAR(4, v)
	w, _ := s.Pick(mask(2, 3), 0)
	if w != 2 {
		t.Fatalf("pick = %d, want 2 (oldest)", w)
	}
	w, _ = s.Pick(mask(1, 2, 3), 1)
	if w != 2 {
		t.Fatalf("greedy pick = %d, want 2", w)
	}
}

func TestMASCARSaturatedPrefersComputeAndSingleMemOwner(t *testing.T) {
	v := &fakeView{saturated: true, memNext: map[arch.WarpID]bool{0: true, 1: false, 2: true}}
	s := NewMASCAR(3, v)
	w, _ := s.Pick(mask(0, 1, 2), 0)
	if w != 1 {
		t.Fatalf("pick = %d, want compute warp 1", w)
	}
	// Only memory warps ready: one becomes owner and stays owner.
	w1, _ := s.Pick(mask(0, 2), 1)
	w2, _ := s.Pick(mask(0, 2), 2)
	if w1 != w2 {
		t.Fatalf("owner changed between picks: %d then %d", w1, w2)
	}
}

func TestLAWSPicksInQueueOrder(t *testing.T) {
	s := NewLAWS(4, 3, true)
	w, _ := s.Pick(mask(1, 3), 0)
	if w != 1 {
		t.Fatalf("pick = %d, want 1 (queue head side)", w)
	}
}

func TestLAWSGroupsByLLPC(t *testing.T) {
	s := NewLAWS(4, 3, true)
	// All warps issue load A; their LLPC becomes A.
	for w := arch.WarpID(0); w < 4; w++ {
		s.OnLoadIssued(w, 0xA0)
	}
	// Warp 0 issues load B: its previous LLPC is A0, matching warps
	// 1,2,3 (and itself).
	g := s.OnLoadIssued(0, 0xB0)
	if g == NoGroup {
		t.Fatal("LAWS did not form a group")
	}
	got := s.OnCacheResult(0, 0xB0, 1, true, g)
	if got != mask(0, 1, 2, 3) {
		t.Fatalf("group = %b, want all four warps", got)
	}
}

func TestLAWSHitPromotesGroupToHead(t *testing.T) {
	s := NewLAWS(6, 3, true)
	for w := arch.WarpID(0); w < 3; w++ {
		s.OnLoadIssued(w, 0xA0)
	}
	// Warps 3..5 have a different history.
	for w := arch.WarpID(3); w < 6; w++ {
		s.OnLoadIssued(w, 0xC0)
	}
	g := s.OnLoadIssued(2, 0xB0) // groups 0,1,2
	s.OnCacheResult(2, 0xB0, 1, true, g)
	q := s.Queue()
	head := mask(q[0], q[1], q[2])
	if head != mask(0, 1, 2) {
		t.Fatalf("queue after hit = %v, want {0,1,2} first", q)
	}
}

func TestLAWSMissDemotesGroupToTail(t *testing.T) {
	s := NewLAWS(6, 3, true)
	for w := arch.WarpID(0); w < 3; w++ {
		s.OnLoadIssued(w, 0xA0)
	}
	for w := arch.WarpID(3); w < 6; w++ {
		s.OnLoadIssued(w, 0xC0)
	}
	g := s.OnLoadIssued(0, 0xB0)
	s.OnCacheResult(0, 0xB0, 1, false, g)
	q := s.Queue()
	tail := mask(q[3], q[4], q[5])
	if tail != mask(0, 1, 2) {
		t.Fatalf("queue after miss = %v, want {0,1,2} last", q)
	}
}

func TestLAWSNoTailDemotionOption(t *testing.T) {
	s := NewLAWS(4, 3, false)
	for w := arch.WarpID(0); w < 4; w++ {
		s.OnLoadIssued(w, 0xA0)
	}
	before := append([]arch.WarpID(nil), s.Queue()...)
	g := s.OnLoadIssued(0, 0xB0)
	s.OnCacheResult(0, 0xB0, 1, false, g)
	for i, w := range s.Queue() {
		if before[i] != w {
			t.Fatalf("queue changed with tail demotion off: %v -> %v", before, s.Queue())
		}
	}
}

func TestLAWSPrioritizeWarps(t *testing.T) {
	s := NewLAWS(6, 3, true)
	s.PrioritizeWarps(mask(4, 5))
	q := s.Queue()
	if q[0] != 4 || q[1] != 5 {
		t.Fatalf("queue = %v, want 4,5 first", q)
	}
}

func TestLAWSWGTEntryInvalidatedAfterUse(t *testing.T) {
	s := NewLAWS(4, 3, true)
	for w := arch.WarpID(0); w < 4; w++ {
		s.OnLoadIssued(w, 0xA0)
	}
	g := s.OnLoadIssued(0, 0xB0)
	if got := s.OnCacheResult(0, 0xB0, 1, true, g); got == 0 {
		t.Fatal("first result should find the group")
	}
	if got := s.OnCacheResult(0, 0xB0, 1, true, g); got != 0 {
		t.Fatal("WGT entry should be invalidated after first use")
	}
}

func TestLAWSWGTRingOverwrite(t *testing.T) {
	s := NewLAWS(4, 2, true) // only 2 WGT entries
	for w := arch.WarpID(0); w < 4; w++ {
		s.OnLoadIssued(w, 0xA0)
	}
	g1 := s.OnLoadIssued(0, 0xB0)
	g2 := s.OnLoadIssued(1, 0xB0)
	g3 := s.OnLoadIssued(2, 0xB0) // overwrites g1's slot
	if got := s.OnCacheResult(0, 0xB0, 1, true, g1); got != 0 {
		t.Fatal("overwritten WGT entry should be gone")
	}
	if got := s.OnCacheResult(1, 0xB0, 1, true, g2); got == 0 {
		t.Fatal("entry g2 should survive")
	}
	if got := s.OnCacheResult(2, 0xB0, 1, true, g3); got == 0 {
		t.Fatal("entry g3 should survive")
	}
}

func TestLAWSQueueIsPermutationInvariant(t *testing.T) {
	s := NewLAWS(8, 3, true)
	for w := arch.WarpID(0); w < 8; w++ {
		s.OnLoadIssued(w, 0xA0)
	}
	for i := 0; i < 50; i++ {
		g := s.OnLoadIssued(arch.WarpID(i%8), arch.PC(0xB0+uint32(i%5)*0x10))
		s.OnCacheResult(arch.WarpID(i%8), 0, 1, i%3 == 0, g)
		s.PrioritizeWarps(arch.WarpMask(uint64(i*2654435761) & 0xFF))
	}
	q := s.Queue()
	if len(q) != 8 {
		t.Fatalf("queue length %d, want 8", len(q))
	}
	var seen arch.WarpMask
	for _, w := range q {
		if seen.Has(w) {
			t.Fatalf("duplicate warp %d in queue %v", w, q)
		}
		seen = seen.Set(w)
	}
}
