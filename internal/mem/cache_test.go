package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"apres/internal/arch"
)

func load(line arch.LineAddr) arch.MemReq {
	return arch.MemReq{Line: line, Kind: arch.AccessLoad}
}

func prefetch(line arch.LineAddr) arch.MemReq {
	return arch.MemReq{Line: line, Kind: arch.AccessPrefetch}
}

func TestColdMissThenHit(t *testing.T) {
	c := NewCache("L1", 1024, 2, 4) // 8 lines, 4 sets
	out := c.Access(load(7), 0)
	if out.Result != arch.ResultMiss {
		t.Fatalf("first access: got %v, want miss", out.Result)
	}
	if out.Class != arch.MissCold {
		t.Fatalf("first access: got class %v, want cold", out.Class)
	}
	if fo := c.Fill(7, 10); fo.Entry == nil || len(fo.Entry.Waiters) != 1 {
		t.Fatalf("fill: entry=%+v, want 1 waiter", fo.Entry)
	}
	if out := c.Access(load(7), 20); out.Result != arch.ResultHit {
		t.Fatalf("after fill: got %v, want hit", out.Result)
	}
}

func TestMSHRMergeAndStall(t *testing.T) {
	c := NewCache("L1", 1024, 2, 2)
	if out := c.Access(load(1), 0); out.Result != arch.ResultMiss {
		t.Fatalf("got %v, want miss", out.Result)
	}
	out := c.Access(load(1), 1)
	if out.Result != arch.ResultMergedMSHR {
		t.Fatalf("same line: got %v, want merged", out.Result)
	}
	if got := len(out.Entry.Waiters); got != 2 {
		t.Fatalf("waiters = %d, want 2", got)
	}
	if out := c.Access(load(2), 2); out.Result != arch.ResultMiss {
		t.Fatalf("got %v, want miss", out.Result)
	}
	if out := c.Access(load(3), 3); out.Result != arch.ResultStall {
		t.Fatalf("MSHRs full: got %v, want stall", out.Result)
	}
	c.Fill(1, 4)
	if out := c.Access(load(3), 5); out.Result != arch.ResultMiss {
		t.Fatalf("after fill freed an MSHR: got %v, want miss", out.Result)
	}
}

func TestCapacityConflictClassification(t *testing.T) {
	// 2 lines total, direct-mapped-ish: 1 set x 2 ways.
	c := NewCache("L1", 256, 2, 8)
	for _, l := range []arch.LineAddr{1, 2, 3} {
		if out := c.Access(load(l), int64(l)); out.Class != arch.MissCold {
			t.Fatalf("line %d: got class %v, want cold", l, out.Class)
		}
		c.Fill(l, int64(l)*10)
	}
	// Line 1 was evicted by the fill of line 3 (LRU); re-access must be
	// classified capacity/conflict.
	out := c.Access(load(1), 100)
	if out.Result != arch.ResultMiss {
		t.Fatalf("got %v, want miss", out.Result)
	}
	if out.Class != arch.MissCapacityConflict {
		t.Fatalf("got class %v, want capacity/conflict", out.Class)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := NewCache("L1", 256, 2, 8) // one set, two ways
	c.Access(load(1), 0)
	c.Fill(1, 0)
	c.Access(load(2), 1)
	c.Fill(2, 1)
	c.Access(load(1), 5) // touch 1 so 2 becomes LRU
	c.Access(load(3), 6)
	c.Fill(3, 7)
	if !c.Contains(1) {
		t.Error("line 1 (MRU) should survive")
	}
	if c.Contains(2) {
		t.Error("line 2 (LRU) should have been evicted")
	}
	if !c.Contains(3) {
		t.Error("line 3 should be resident")
	}
}

func TestPrefetchDroppedWhenResidentOrInFlight(t *testing.T) {
	c := NewCache("L1", 1024, 2, 4)
	c.Access(load(5), 0)
	if out := c.Access(prefetch(5), 1); out.Result != arch.ResultMergedMSHR {
		t.Fatalf("in-flight line: got %v, want merged (drop)", out.Result)
	}
	c.Fill(5, 2)
	if out := c.Access(prefetch(5), 3); out.Result != arch.ResultHit {
		t.Fatalf("resident line: got %v, want hit (drop)", out.Result)
	}
}

func TestPrefetchLifecycleUseful(t *testing.T) {
	c := NewCache("L1", 1024, 2, 4)
	out := c.Access(prefetch(9), 0)
	if out.Result != arch.ResultMiss || !out.Entry.Prefetch {
		t.Fatalf("prefetch miss: got %+v", out)
	}
	c.Fill(9, 10)
	hit := c.Access(load(9), 20)
	if hit.Result != arch.ResultHit || !hit.FirstUseOfPrefetch {
		t.Fatalf("demand on prefetched line: got %+v, want hit + first use", hit)
	}
	// Second demand hit must not count first-use again.
	if again := c.Access(load(9), 21); again.FirstUseOfPrefetch {
		t.Error("second hit re-counted FirstUseOfPrefetch")
	}
}

func TestPrefetchMergeIsLateButUseful(t *testing.T) {
	c := NewCache("L1", 1024, 2, 4)
	c.Access(prefetch(9), 0)
	out := c.Access(load(9), 5)
	if out.Result != arch.ResultMergedMSHR || !out.MergedIntoPrefetch {
		t.Fatalf("demand merging into prefetch MSHR: got %+v", out)
	}
	fo := c.Fill(9, 10)
	if !fo.PrefetchCompletedUseful {
		t.Error("fill of merged prefetch should report PrefetchCompletedUseful")
	}
	// The line was demanded pre-fill, so it must not look like an unused
	// prefetched line afterwards.
	if hit := c.Access(load(9), 20); hit.FirstUseOfPrefetch {
		t.Error("merged prefetch line wrongly counted first-use after fill")
	}
}

func TestEarlyEvictionDetection(t *testing.T) {
	c := NewCache("L1", 256, 2, 8) // one set, two ways
	// Prefetch line 1, fill it, never use it.
	c.Access(prefetch(1), 0)
	c.Fill(1, 1)
	// Two demand lines evict it.
	c.Access(load(2), 2)
	c.Fill(2, 3)
	c.Access(load(3), 4)
	fo := c.Fill(3, 5)
	if !fo.VictimUnusedPrefetch {
		t.Fatal("eviction of unused prefetched line not reported")
	}
	// Demand for line 1 proves the prefetch was correct but early-evicted.
	out := c.Access(load(1), 6)
	if !out.ProvesEarlyEviction {
		t.Fatal("demand after eviction should prove early eviction")
	}
	if c.UnresolvedEarlyEvictions() != 0 {
		t.Fatal("proven early eviction should be removed from unresolved set")
	}
}

func TestUnresolvedEarlyEvictionsAreUseless(t *testing.T) {
	c := NewCache("L1", 256, 2, 8)
	c.Access(prefetch(1), 0)
	c.Fill(1, 1)
	c.Access(load(2), 2)
	c.Fill(2, 3)
	c.Access(load(3), 4)
	c.Fill(3, 5)
	if got := c.UnresolvedEarlyEvictions(); got != 1 {
		t.Fatalf("unresolved early evictions = %d, want 1", got)
	}
}

func TestHitAfterHitTracking(t *testing.T) {
	c := NewCache("L1", 1024, 2, 4)
	if _, known := c.LastDemandWasHit(); known {
		t.Fatal("fresh cache should not know a last demand result")
	}
	c.Access(load(1), 0)
	if hit, known := c.LastDemandWasHit(); !known || hit {
		t.Fatalf("after miss: hit=%v known=%v", hit, known)
	}
	c.Fill(1, 1)
	c.Access(load(1), 2)
	if hit, _ := c.LastDemandWasHit(); !hit {
		t.Fatal("after hit: expected last=hit")
	}
}

func TestL2CacheServicesPrefetchReads(t *testing.T) {
	c := NewL2Cache("L2", 1024, 2, 4)
	out := c.Access(prefetch(4), 0)
	if out.Result != arch.ResultMiss {
		t.Fatalf("L2 prefetch miss: got %v, want miss", out.Result)
	}
	if got := len(out.Entry.Waiters); got != 1 {
		t.Fatalf("L2 must keep the prefetch as a waiter, got %d", got)
	}
	c.Fill(4, 1)
	if out := c.Access(prefetch(4), 2); out.Result != arch.ResultHit {
		t.Fatalf("L2 resident prefetch read: got %v, want hit", out.Result)
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := NewCache("L1", 1024, 2, 4)
	c.Access(load(1), 0)
	c.Fill(1, 1)
	c.Reset()
	if c.Contains(1) || c.MSHRCount() != 0 {
		t.Fatal("reset did not clear content")
	}
	if out := c.Access(load(1), 2); out.Class != arch.MissCold {
		t.Fatal("reset did not clear classification history")
	}
}

// Property: after any sequence of (access, fill-all) operations, a line that
// was filled and not subsequently evicted must hit, and the number of valid
// lines never exceeds capacity.
func TestQuickFillThenHit(t *testing.T) {
	f := func(lineSeeds []uint16) bool {
		c := NewCache("L1", 2048, 4, 8) // 16 lines
		cycle := int64(0)
		for _, s := range lineSeeds {
			l := arch.LineAddr(s % 64)
			cycle++
			out := c.Access(load(l), cycle)
			switch out.Result {
			case arch.ResultMiss:
				cycle++
				c.Fill(l, cycle)
				cycle++
				if c.Access(load(l), cycle).Result != arch.ResultHit {
					return false
				}
			case arch.ResultStall:
				return false // all misses fill immediately, MSHRs never exhaust
			}
		}
		valid := 0
		for i := 0; i < 64; i++ {
			if c.Contains(arch.LineAddr(i)) {
				valid++
			}
		}
		return valid <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: miss classification is cold exactly on the first touch of a line.
func TestQuickColdOnlyOnFirstTouch(t *testing.T) {
	f := func(lineSeeds []uint8) bool {
		c := NewCache("L1", 512, 2, 64)
		touched := map[arch.LineAddr]bool{}
		for i, s := range lineSeeds {
			l := arch.LineAddr(s % 32)
			out := c.Access(load(l), int64(i))
			if out.Result == arch.ResultMiss || out.Result == arch.ResultMergedMSHR {
				wantCold := !touched[l]
				if (out.Class == arch.MissCold) != wantCold {
					return false
				}
			}
			touched[l] = true
			if out.Result == arch.ResultMiss {
				c.Fill(l, int64(i))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// traceStep is one Access outcome and, when a fill followed it, the fill's.
type traceStep struct {
	acc  Outcome
	fill FillOutcome
}

// accessTrace replays a fixed mixed sequence — demand misses, prefetches,
// merges, fills that evict unused prefetched lines, re-demands that prove
// early eviction — and returns every outcome. Entry pointers are dropped:
// they differ from run to run, the outcomes must not.
func accessTrace(c *Cache) []traceStep {
	var steps []traceStep
	rng := rand.New(rand.NewSource(5))
	var inflight []arch.LineAddr
	for cycle := int64(0); cycle < 4000; cycle++ {
		l := arch.LineAddr(rng.Intn(96))
		req := load(l)
		if rng.Intn(3) == 0 {
			req = prefetch(l)
		}
		st := traceStep{acc: c.Access(req, cycle)}
		st.acc.Entry = nil
		if st.acc.Result == arch.ResultMiss {
			inflight = append(inflight, l)
		}
		if len(inflight) > 0 && (st.acc.Result == arch.ResultStall || rng.Intn(2) == 0) {
			st.fill = c.Fill(inflight[0], cycle)
			st.fill.Entry = nil
			inflight = inflight[1:]
		}
		steps = append(steps, st)
	}
	return steps
}

// TestResetReplaysWithoutReallocating: after Reset the same access sequence
// produces the same outcomes, out of the tables and MSHR entries the first
// pass left behind.
func TestResetReplaysWithoutReallocating(t *testing.T) {
	c := NewCache("L1", 2*1024, 2, 8) // 16 lines: evictions and stalls aplenty
	first := accessTrace(c)
	var early, capconf int
	for _, st := range first {
		if st.acc.ProvesEarlyEviction {
			early++
		}
		if st.acc.Class == arch.MissCapacityConflict {
			capconf++
		}
	}
	if early == 0 || capconf == 0 {
		t.Fatalf("trace exercises too little: %d early evictions, %d capacity misses", early, capconf)
	}
	c.Reset()
	if c.MSHRCount() != 0 || c.LinesEverMissed() != 0 || c.UnresolvedEarlyEvictions() != 0 {
		t.Fatal("Reset left MSHR or classification state behind")
	}
	second := accessTrace(c)
	if len(first) != len(second) {
		t.Fatalf("replay produced %d outcomes, first pass %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("outcome %d differs after Reset: %+v vs %+v", i, second[i], first[i])
		}
	}
	if n := testing.AllocsPerRun(3, func() {
		c.Reset()
		for cycle := int64(0); cycle < 64; cycle++ {
			l := arch.LineAddr(cycle % 24)
			if out := c.Access(load(l), cycle); out.Result == arch.ResultMiss {
				c.Fill(l, cycle)
			}
		}
	}); n != 0 {
		t.Fatalf("Reset + replay allocated %v times per run", n)
	}
}

// TestL2SliceKeepsNoL1State: an L2 slice serves prefetch-allocated lines and
// evicts them unused without recording any of it.
func TestL2SliceKeepsNoL1State(t *testing.T) {
	c := NewL2Cache("L2", 2*1024, 2, 8)
	for i := 0; i < 200; i++ {
		l := arch.LineAddr(i)
		out := c.Access(prefetch(l), int64(i))
		if out.Result != arch.ResultMiss || out.Class != arch.MissNone || out.ProvesEarlyEviction {
			t.Fatalf("line %d: %+v, want an unclassified miss", l, out)
		}
		c.Fill(l, int64(i))
	}
	for i := 0; i < 200; i++ { // every line was evicted unused; re-demand them
		out := c.Access(load(arch.LineAddr(i)), int64(1000+i))
		if out.Class != arch.MissNone || out.ProvesEarlyEviction {
			t.Fatalf("re-demand of line %d: %+v, want no classification", i, out)
		}
		if out.Result == arch.ResultMiss {
			c.Fill(arch.LineAddr(i), int64(1000+i))
		}
	}
	if c.LinesEverMissed() != 0 || c.UnresolvedEarlyEvictions() != 0 {
		t.Fatalf("L2 slice tracked %d seen lines, %d evicted prefetches; want none",
			c.LinesEverMissed(), c.UnresolvedEarlyEvictions())
	}
}
