package main

import (
	"time"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/dram"
	"apres/internal/kernel"
	"apres/internal/mem"
	"apres/internal/noc"
	"apres/internal/prefetch"
	"apres/internal/sched"
	"apres/internal/stats"
	"apres/internal/workloads"
)

// The isolated component loops drive one layer's exported calls on a
// synthetic stream, so a hot-path change shows at the layer that caused it
// even when the whole-run attribution is too coarse to see it. Each figure is
// the median over rounds batches of the per-call cost.
const (
	compRounds = 9
	compBatch  = 20000
)

// measureComponents runs every isolated loop and records the per-layer
// metrics of mem, sched, prefetch, dram, noc and kernel.
func measureComponents(e *env) {
	measureMem(e)
	measureSched(e)
	measurePrefetch(e)
	measureDRAM(e)
	measureNoC(e)

	var scaled []float64
	for _, app := range simApps {
		w, _ := workloads.ByName(app)
		scaled = append(scaled, nsPerOp(compRounds, 200, func(n int) {
			for i := 0; i < n; i++ {
				kernelSink = w.Kernel.Scaled(0.5)
			}
		})/1e3)
	}
	e.set("kernel.scaled_us", median(scaled), len(scaled))
}

// kernelSink keeps Kernel.Scaled's result alive, or the compiler drops the call.
var kernelSink kernel.Kernel

func load(line arch.LineAddr, warp int) arch.MemReq {
	return arch.MemReq{Line: line, Kind: arch.AccessLoad, Warp: arch.WarpID(warp % 48), PC: 0x100}
}

// measureMem drives an L1-shaped cache (32 KB, 8-way, 64 MSHRs) with a
// resident stream (hits), a stream over 16x the capacity (misses and the
// fills that complete them) and repeated accesses to in-flight lines (MSHR
// merges), and an L2 slice with a resident stream.
func measureMem(e *env) {
	const l1Lines = 32 * 1024 / arch.LineSizeBytes
	l1 := mem.NewCache("L1", 32*1024, 8, 64)
	for l := 0; l < l1Lines; l++ {
		l1.Access(load(arch.LineAddr(l), l), 0)
		l1.Fill(arch.LineAddr(l), 0)
	}
	e.set("mem.hit_ns", nsPerOp(compRounds, compBatch, func(n int) {
		for i := 0; i < n; i++ {
			l1.Access(load(arch.LineAddr(i%l1Lines), i), int64(i))
		}
	}), compRounds)

	// Misses allocate an MSHR each, so they come 64 at a time, followed by
	// the 64 fills; the two phases are timed apart.
	const ring, group = 16 * l1Lines, 64
	var next int
	phase := func(access bool) float64 {
		l1 = mem.NewCache("L1", 32*1024, 8, 64)
		next = 0
		var per []float64
		for r := 0; r <= compRounds; r++ {
			var spent time.Duration
			for g := 0; g < compBatch/group; g++ {
				t0 := time.Now()
				for i := 0; i < group; i++ {
					l1.Access(load(arch.LineAddr((next+i)%ring), i), int64(next))
				}
				t1 := time.Now()
				for i := 0; i < group; i++ {
					l1.Fill(arch.LineAddr((next+i)%ring), int64(next))
				}
				if access {
					spent += t1.Sub(t0)
				} else {
					spent += time.Since(t1)
				}
				next += group
			}
			if r > 0 { // round 0 warms the maps
				per = append(per, float64(spent)/float64(compBatch/group*group))
			}
		}
		return median(per)
	}
	e.set("mem.miss_ns", phase(true), compRounds)
	e.set("mem.fill_ns", phase(false), compRounds)

	// One miss in flight, then 32 demand accesses from other warps merge
	// into its MSHR entry; only the merges are timed.
	l1 = mem.NewCache("L1", 32*1024, 8, 64)
	const merges = 32
	var mergeNS []float64
	for r := 0; r <= compRounds; r++ {
		var spent time.Duration
		for g := 0; g < compBatch/merges; g++ {
			line := arch.LineAddr(next % ring)
			next++
			l1.Access(load(line, 0), int64(g))
			t0 := time.Now()
			for i := 1; i <= merges; i++ {
				l1.Access(load(line, i), int64(g))
			}
			spent += time.Since(t0)
			l1.Fill(line, int64(g))
		}
		if r > 0 {
			mergeNS = append(mergeNS, float64(spent)/float64(compBatch/merges*merges))
		}
	}
	e.set("mem.merge_ns", median(mergeNS), compRounds)

	cfg := config.Baseline()
	slice := cfg.L2SizeBytes / cfg.DRAMPartitions
	l2 := mem.NewL2Cache("L2", slice, cfg.L2Ways, cfg.L2MSHRs)
	l2Lines := slice / arch.LineSizeBytes
	for l := 0; l < l2Lines; l++ {
		l2.Access(load(arch.LineAddr(l), l), 0)
		l2.Fill(arch.LineAddr(l), 0)
	}
	e.set("mem.l2_access_ns", nsPerOp(compRounds, compBatch, func(n int) {
		for i := 0; i < n; i++ {
			l2.Access(load(arch.LineAddr(i%l2Lines), i), int64(i))
		}
	}), compRounds)
}

// stubView is the SM state CCWS and MASCAR consult: never saturated, every
// fourth warp about to access memory.
type stubView struct{}

func (stubView) MemSaturated() bool           { return false }
func (stubView) NextIsMem(w arch.WarpID) bool { return w%4 == 0 }

// measureSched times Pick for each scheduler over a rotating ready set of 48
// warps, and the LAWS group bookkeeping around one load.
func measureSched(e *env) {
	const warps = 48
	pick := func(kind config.SchedulerKind) float64 {
		cfg := config.Baseline().WithScheduler(kind)
		s, err := sched.New(cfg, warps, stubView{})
		if err != nil {
			return 0
		}
		return nsPerOp(compRounds, compBatch, func(n int) {
			ready := arch.WarpMask(0x0000_F0F0_F0F0_F0F0)
			for i := 0; i < n; i++ {
				s.Pick(ready, int64(i))
				ready = (ready<<1 | ready>>(warps-1)) & (1<<warps - 1)
			}
		})
	}
	e.set("sched.pick_lrr_ns", pick(config.SchedLRR), compRounds)
	e.set("sched.pick_gto_ns", pick(config.SchedGTO), compRounds)
	e.set("sched.pick_ccws_ns", pick(config.SchedCCWS), compRounds)
	e.set("sched.pick_laws_ns", pick(config.SchedLAWS), compRounds)

	laws := sched.NewLAWS(warps, config.Baseline().LAWSWGTEntries, true)
	e.set("sched.laws_cache_result_ns", nsPerOp(compRounds, compBatch, func(n int) {
		for i := 0; i < n; i++ {
			w := arch.WarpID(i % warps)
			pc := arch.PC(0x100 + 8*(i%3))
			g := laws.OnLoadIssued(w, pc)
			laws.OnCacheResult(w, pc, arch.LineAddr(i), i%4 != 0, g)
		}
	}), compRounds)
}

// measurePrefetch times the three prefetchers on an inter-warp strided
// stream of four static loads.
func measurePrefetch(e *env) {
	cfg := config.Baseline()
	access := func(p prefetch.Prefetcher) float64 {
		return nsPerOp(compRounds, compBatch, func(n int) {
			for i := 0; i < n; i++ {
				w := arch.WarpID(i % 48)
				p.OnAccess(arch.PC(0x100+8*(i%4)), w, w, arch.Addr(0x10000+4352*i), i%3 == 0)
			}
		})
	}
	if p, err := prefetch.New(cfg.WithPrefetcher(config.PrefSTR)); err == nil {
		e.set("prefetch.str_access_ns", access(p), compRounds)
	}
	if p, err := prefetch.New(cfg.WithPrefetcher(config.PrefSLD)); err == nil {
		e.set("prefetch.sld_access_ns", access(p), compRounds)
	}

	sap := prefetch.NewSAP(cfg.SAPPTEntries, cfg.SAPDRQEntries, cfg.SAPStrideGate)
	group := make([]prefetch.Target, 8)
	e.set("prefetch.sap_group_miss_ns", nsPerOp(compRounds, compBatch, func(n int) {
		for i := 0; i < n; i++ {
			w := arch.WarpID(i % 40)
			for j := range group {
				group[j] = prefetch.Target{Slot: w + arch.WarpID(j), Wid: w + arch.WarpID(j)}
			}
			sap.OnGroupMiss(arch.PC(0x100+8*(i%4)), w, arch.Addr(0x10000+4352*i), group, int64(i))
		}
	}), compRounds)
}

// loadedMemSystem returns a memory system holding inflight requests to
// distinct lines (all L2 misses), injected at cycle 0.
func loadedMemSystem(cfg config.Config, inflight int) *dram.MemSystem {
	var st stats.Stats
	m := dram.New(cfg, &st)
	for i := 0; i < inflight; i++ {
		m.Request(arch.MemReq{Line: arch.LineAddr(i), Kind: arch.AccessLoad, SM: i % cfg.NumSMs, Warp: arch.WarpID(i % 48)}, 0)
	}
	return m
}

// measureDRAM times the memory system alone: injecting a request, a Tick
// with nothing due, and a Tick that retires a batch of due fills (reported
// per event retired).
func measureDRAM(e *env) {
	cfg := config.Baseline()
	const inflight = 1024 // one L2 slice's MSHRs times four partitions' worth
	var reqNS, busyNS, idleNS []float64
	for r := 0; r <= compRounds; r++ {
		t0 := time.Now()
		m := loadedMemSystem(cfg, inflight)
		req := time.Since(t0)

		t0 = time.Now()
		idleTicks := int64(cfg.DRAMLatency - 1) // nothing is due before cycle DRAMLatency
		for c := int64(1); c <= idleTicks; c++ {
			m.Tick(c)
		}
		idle := time.Since(t0)

		t0 = time.Now()
		n := 0
		for c := int64(1 << 20); !m.Drained(); c++ {
			n += len(m.Tick(c))
		}
		busy := time.Since(t0)
		if r > 0 && n > 0 {
			reqNS = append(reqNS, float64(req)/inflight)
			idleNS = append(idleNS, float64(idle)/float64(idleTicks))
			busyNS = append(busyNS, float64(busy)/float64(n))
		}
	}
	e.set("dram.request_ns", median(reqNS), len(reqNS))
	e.set("dram.tick_idle_ns", median(idleNS), len(idleNS))
	e.set("dram.tick_busy_ns", median(busyNS), len(busyNS))
}

// peekWindowUS times PeekWindowResponses, the snapshot the parallel engine
// takes at every epoch start, over an event heap holding 512 requests, for a
// window one L2 latency wide.
func peekWindowUS() float64 {
	cfg := config.Baseline()
	m := loadedMemSystem(cfg, 512)
	m.Tick(int64(cfg.DRAMLatency)) // some fills retired, most still queued behind the service interval
	upTo := int64(cfg.DRAMLatency + cfg.L2Latency)
	return nsPerOp(compRounds, 200, func(n int) {
		for i := 0; i < n; i++ {
			m.PeekWindowResponses(upTo)
		}
	}) / 1e3
}

// measureNoC times routing a response to its SM and delivering it.
func measureNoC(e *env) {
	cfg := config.Baseline()
	var st stats.Stats
	net := noc.New(cfg.NumSMs, cfg.NoCBytesPerCycle, &st)
	var enq, del []float64
	for r := 0; r <= compRounds; r++ {
		t0 := time.Now()
		for i := 0; i < compBatch; i++ {
			net.Enqueue(dram.Response{Req: arch.MemReq{SM: i % cfg.NumSMs, Line: arch.LineAddr(i)}, ReadyCycle: int64(r)})
		}
		t1 := time.Now()
		calls := 0
		for c := int64(r) * (1 << 20); net.Pending(); c++ {
			for sm := 0; sm < cfg.NumSMs; sm++ {
				net.Deliver(sm, c)
				calls++
			}
		}
		if r > 0 {
			enq = append(enq, float64(t1.Sub(t0))/compBatch)
			del = append(del, float64(time.Since(t1))/float64(calls))
		}
	}
	e.set("noc.enqueue_ns", median(enq), len(enq))
	e.set("noc.deliver_ns", median(del), len(del))
}
