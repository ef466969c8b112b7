package dram

import (
	"math/rand"
	"testing"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/stats"
)

func testConfig() config.Config {
	c := config.Baseline()
	c.DRAMPartitions = 2
	c.L2SizeBytes = 64 * 1024
	return c
}

func collectUntil(t *testing.T, m *MemSystem, start, limit int64) []Response {
	t.Helper()
	var all []Response
	for cyc := start; cyc < limit; cyc++ {
		all = append(all, m.Tick(cyc)...)
		if m.Drained() && len(all) > 0 {
			break
		}
	}
	return all
}

func TestL2MissGoesToDRAMWithMinLatency(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	req := arch.MemReq{Line: 100, Kind: arch.AccessLoad, SM: 3, IssueCycle: 0}
	m.Request(req, 0)
	rs := collectUntil(t, m, 0, 5000)
	if len(rs) != 1 {
		t.Fatalf("responses = %d, want 1", len(rs))
	}
	wantMin := int64(cfg.DRAMLatency)
	if rs[0].ReadyCycle < wantMin {
		t.Fatalf("ready at %d, want >= %d (DRAM latency)", rs[0].ReadyCycle, wantMin)
	}
	if rs[0].Req.SM != 3 {
		t.Fatalf("response routed to SM %d, want 3", rs[0].Req.SM)
	}
	if st.DRAMAccesses != 1 || st.L2Misses != 1 {
		t.Fatalf("stats: dram=%d l2miss=%d, want 1/1", st.DRAMAccesses, st.L2Misses)
	}
}

func TestL2HitIsFasterThanDRAM(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	req := arch.MemReq{Line: 100, Kind: arch.AccessLoad}
	m.Request(req, 0)
	collectUntil(t, m, 0, 5000)

	m.Request(req, 2000)
	rs := collectUntil(t, m, 2000, 7000)
	if len(rs) != 1 {
		t.Fatalf("responses = %d, want 1", len(rs))
	}
	got := rs[0].ReadyCycle - 2000
	if got != int64(cfg.L2Latency) {
		t.Fatalf("L2 hit latency = %d, want %d", got, cfg.L2Latency)
	}
	if st.GPUL2Hits != 1 {
		t.Fatalf("L2 hits = %d, want 1", st.GPUL2Hits)
	}
}

func TestMergingAtL2WakesAllWaiters(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	m.Request(arch.MemReq{Line: 100, Kind: arch.AccessLoad, SM: 0}, 0)
	m.Request(arch.MemReq{Line: 100, Kind: arch.AccessLoad, SM: 1}, 1)
	rs := collectUntil(t, m, 0, 5000)
	if len(rs) != 2 {
		t.Fatalf("responses = %d, want 2 (one per merged waiter)", len(rs))
	}
	if st.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d, want 1 (merged)", st.DRAMAccesses)
	}
	sms := map[int]bool{rs[0].Req.SM: true, rs[1].Req.SM: true}
	if !sms[0] || !sms[1] {
		t.Fatalf("waiters woken for SMs %v, want 0 and 1", sms)
	}
}

func TestQueueingDelayUnderBandwidthPressure(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMServiceInterval = 100
	var st stats.Stats
	m := New(cfg, &st)
	// Two distinct lines on the same partition (stride by partition count).
	m.Request(arch.MemReq{Line: 0, Kind: arch.AccessLoad}, 0)
	m.Request(arch.MemReq{Line: arch.LineAddr(cfg.DRAMPartitions), Kind: arch.AccessLoad}, 0)
	var rs []Response
	for cyc := int64(0); cyc < 10000 && len(rs) < 2; cyc++ {
		rs = append(rs, m.Tick(cyc)...)
	}
	if len(rs) != 2 {
		t.Fatalf("responses = %d, want 2", len(rs))
	}
	if st.DRAMQueueCycles < int64(cfg.DRAMServiceInterval) {
		t.Fatalf("queue cycles = %d, want >= %d", st.DRAMQueueCycles, cfg.DRAMServiceInterval)
	}
	gap := rs[1].ReadyCycle - rs[0].ReadyCycle
	if gap < int64(cfg.DRAMServiceInterval) {
		t.Fatalf("service gap = %d, want >= %d", gap, cfg.DRAMServiceInterval)
	}
}

func TestStoresConsumeBandwidthWithoutResponse(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	m.Request(arch.MemReq{Line: 0, Kind: arch.AccessStore}, 0)
	for cyc := int64(0); cyc < 2000; cyc++ {
		if rs := m.Tick(cyc); len(rs) != 0 {
			t.Fatalf("store produced a response: %+v", rs)
		}
	}
	if st.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d, want 1", st.DRAMAccesses)
	}
}

func TestPartitionInterleaving(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	if m.PartitionOf(0) == m.PartitionOf(1) {
		t.Fatal("adjacent lines should map to different partitions")
	}
	if m.PartitionOf(0) != m.PartitionOf(arch.LineAddr(cfg.DRAMPartitions)) {
		t.Fatal("lines a partition-stride apart should share a partition")
	}
}

func TestDrained(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	if !m.Drained() {
		t.Fatal("fresh system should be drained")
	}
	m.Request(arch.MemReq{Line: 7, Kind: arch.AccessLoad}, 0)
	if m.Drained() {
		t.Fatal("system with in-flight request should not be drained")
	}
	collectUntil(t, m, 0, 5000)
	if !m.Drained() {
		t.Fatal("system should drain after responses complete")
	}
}

// TestPeekWindowMatchesTick pins the epoch lookahead against the real thing:
// for every window width, PeekWindowResponses must list exactly the
// responses that ticking through the window then produces, in the same
// order and at the same cycles — from a queue mixing L2 hits, DRAM fills and
// merged waiters — and asking twice must change nothing.
func TestPeekWindowMatchesTick(t *testing.T) {
	cfg := testConfig()
	load := func() *MemSystem {
		var st stats.Stats
		m := New(cfg, &st)
		// Warm a few lines into the L2 so later requests to them hit.
		for l := 0; l < 8; l++ {
			m.Request(arch.MemReq{Line: arch.LineAddr(l), Kind: arch.AccessLoad}, 0)
		}
		warm := int64(cfg.DRAMLatency + 8*cfg.DRAMServiceInterval)
		for c := int64(0); c <= warm; c++ {
			m.Tick(c)
		}
		// Hits, misses queued behind the service interval, and merges from
		// other SMs, issued over a spread of cycles.
		for i := 0; i < 96; i++ {
			c := warm + 1 + int64(i/4)
			m.Tick(c)
			m.Request(arch.MemReq{SM: i % 5, Warp: arch.WarpID(i), Line: arch.LineAddr(i % 40), Kind: arch.AccessLoad}, c)
		}
		return m
	}
	start := int64(cfg.DRAMLatency+8*cfg.DRAMServiceInterval) + 1 + 96/4
	for _, width := range []int64{0, 1, 50, int64(cfg.L2Latency), int64(cfg.DRAMLatency), 4 * int64(cfg.DRAMLatency)} {
		m := load()
		checkRing(t, &m.events)
		upTo := start + width
		peek := append([]Scheduled(nil), m.PeekWindowResponses(upTo)...)
		again := m.PeekWindowResponses(upTo)
		if len(again) != len(peek) {
			t.Fatalf("width %d: second peek lists %d responses, first %d", width, len(again), len(peek))
		}
		var ticked []Scheduled
		for c := start; c <= upTo; c++ {
			for _, r := range m.Tick(c) {
				ticked = append(ticked, Scheduled{EnqueueCycle: c, Resp: r})
			}
		}
		if len(peek) != len(ticked) {
			t.Fatalf("width %d: peek lists %d responses, ticking produced %d", width, len(peek), len(ticked))
		}
		for i := range peek {
			if peek[i] != again[i] {
				t.Fatalf("width %d: response %d differs between two peeks: %+v vs %+v", width, i, peek[i], again[i])
			}
			if peek[i].EnqueueCycle != ticked[i].EnqueueCycle || peek[i].Resp != ticked[i].Resp {
				t.Fatalf("width %d: response %d: peek %+v, tick %+v", width, i, peek[i], ticked[i])
			}
			if i > 0 && (peek[i].EnqueueCycle < peek[i-1].EnqueueCycle ||
				peek[i].EnqueueCycle == peek[i-1].EnqueueCycle && peek[i].Seq < peek[i-1].Seq) {
				t.Fatalf("width %d: responses %d and %d out of (cycle, seq) order", width, i-1, i)
			}
		}
		if width == 4*int64(cfg.DRAMLatency) && len(peek) != 96 {
			t.Errorf("the widest window should see all 96 loads answered, saw %d", len(peek))
		}
		checkRing(t, &m.events)
	}
}

// TestEventSlabReuseNeverAliasesLivePayload interleaves pushes and pops for
// long enough that every slab slot is recycled many times, with every request
// carrying a unique tag. A payload overwritten while its slot was still on a
// bucket list would answer the wrong request (or one twice); each load must
// instead come back exactly once, intact, and the lookahead must keep
// agreeing with Tick while slots churn.
func TestEventSlabReuseNeverAliasesLivePayload(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	rng := rand.New(rand.NewSource(11))
	pending := map[arch.MemReq]bool{}
	issued, peakInFlight := 0, 0
	drain := int64(4 * (cfg.DRAMLatency + cfg.L2Latency))
	for c := int64(0); c < 6000+drain; c++ {
		var peek []Scheduled
		if c%37 == 0 {
			peek = append(peek, m.PeekWindowResponses(c)...)
		}
		resp := m.Tick(c)
		if c%37 == 0 {
			if len(peek) != len(resp) {
				t.Fatalf("cycle %d: peek lists %d responses, tick produced %d", c, len(peek), len(resp))
			}
			for i := range resp {
				if peek[i].Resp != resp[i] {
					t.Fatalf("cycle %d: response %d: peek %+v, tick %+v", c, i, peek[i].Resp, resp[i])
				}
			}
		}
		for _, r := range resp {
			if !pending[r.Req] {
				t.Fatalf("cycle %d: response for %+v, which is not outstanding (answered twice, or a recycled payload)", c, r.Req)
			}
			delete(pending, r.Req)
			// The fastest answer is a merge into a fill about to pop.
			if r.ReadyCycle <= r.Req.IssueCycle+m.ReturnLeg() {
				t.Fatalf("response %+v ready before the return leg alone allows", r)
			}
		}
		// Bursts and lulls: the ring fills, drains to empty, and refills, so
		// the free list is rebuilt from scratch several times.
		if c < 6000 && (c/300)%2 == 0 {
			for n := rng.Intn(4); n > 0; n-- {
				req := arch.MemReq{
					Line: arch.LineAddr(rng.Intn(3000)), Kind: arch.AccessLoad,
					SM: rng.Intn(15), Warp: arch.WarpID(rng.Intn(48)),
					PC: arch.PC(issued), IssueCycle: c, // PC makes every request unique
				}
				issued++
				pending[req] = true
				m.Request(req, c)
			}
		}
		peakInFlight = max(peakInFlight, m.events.n)
		if c%101 == 0 {
			checkRing(t, &m.events)
		}
	}
	if len(pending) != 0 || !m.Drained() {
		t.Fatalf("%d of %d loads never answered (drained=%v)", len(pending), issued, m.Drained())
	}
	checkRing(t, &m.events)
	if slots := len(m.events.slab); slots > peakInFlight || issued < 10*slots {
		t.Fatalf("slab grew to %d slots for a peak of %d events in flight (%d issued): slots are not being reused",
			slots, peakInFlight, issued)
	}
}
