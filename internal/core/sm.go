// Package core implements the streaming multiprocessor (SM) timing model:
// warp contexts walking a kernel program, a warp scheduler, a scoreboard
// (memory-dependence and pipeline-latency stalls), a load-store unit with
// memory request coalescing, the L1 data cache with MSHRs, and the
// prefetcher. It is also where APRES is wired together: the core routes L1
// results to LAWS, forwards missed warp groups to SAP, injects SAP's
// prefetches, and hands SAP's target warps back to LAWS for prioritisation
// (Figure 5 of the paper).
package core

import (
	"fmt"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/dram"
	"apres/internal/kernel"
	"apres/internal/mem"
	"apres/internal/prefetch"
	"apres/internal/sched"
	"apres/internal/stats"
	"apres/internal/trace"
)

// lsuQueueMax is the LSU input queue depth; issue of new memory
// instructions back-pressures when it fills.
const lsuQueueMax = 64

// pfQueueMax bounds the prefetch injection queue.
const pfQueueMax = 128

// warpCtx is the architectural state of one hardware warp slot.
type warpCtx struct {
	walker kernel.Walker
	// wid is the logical warp ID currently occupying the slot; it grows
	// past the slot count as finished warps are replaced (CTA refill).
	wid         arch.WarpID
	nextIssue   int64 // earliest cycle the warp may issue again
	outstanding int   // in-flight demand line requests
	done        bool
}

// lsuOp is one line-granular memory operation queued at the LSU.
type lsuOp struct {
	req  arch.MemReq
	addr arch.Addr // lead byte address (prefetcher/scheduler signalling)
	// wid is the logical warp ID that issued the op (stride arithmetic).
	wid arch.WarpID
	// lead marks the first line of a coalesced load: scheduler and
	// prefetcher feedback fires once per load instruction.
	lead  bool
	group int // LAWS WGT id carried from issue to cache result
}

// completion is a scheduled hit-latency expiry.
type completion struct {
	cycle int64
	warp  arch.WarpID
}

// pfAccuracy tracks per-static-load prefetch usefulness; both STR/SLD and
// SAP are adaptive (Section V.E: prefetches are issued "only when ... the
// address prediction is likely to be correct"), so the SM stops issuing
// prefetches for loads whose predictions keep going unused.
type pfAccuracy struct {
	pc                arch.PC
	issued, good, bad int
}

// blocked reports whether the load's prefetches should be suppressed: a
// load must keep roughly two useful prefetches per wasted one.
func (a *pfAccuracy) blocked() bool {
	return a.issued >= 48 && a.good < 2*a.bad
}

// decayIfFull halves the counters periodically so a load can recover.
func (a *pfAccuracy) decayIfFull() {
	if a.issued >= 512 {
		a.issued /= 2
		a.good /= 2
		a.bad /= 2
	}
}

// LoadStat is the per-static-load characterisation record behind Table I.
type LoadStat struct {
	// PC is the static load address.
	PC arch.PC
	// Issues counts warp-level issues of the load (pre-coalescing), so
	// Refs/Issues is the load's average lines per access and
	// Issues/warps recovers the per-warp dynamic execution count
	// (workspec's measured-spec emission).
	Issues int64
	// Refs counts line references after coalescing.
	Refs int64
	// Misses counts L1 misses (including MSHR merges).
	Misses int64
	// UniqueLines counts distinct lines referenced (#L in #L/#R).
	UniqueLines int64
	// StrideHist histograms the observed inter-warp strides
	// (address delta divided by warp-ID delta).
	StrideHist map[int64]int64
	// StrideSamples counts stride observations.
	StrideSamples int64

	seen     mem.LineTable[struct{}]
	lastWarp arch.WarpID
	lastAddr arch.Addr
	hasLast  bool
}

// DominantStride returns the most frequent stride and its share of samples.
func (l *LoadStat) DominantStride() (stride int64, share float64) {
	var best int64
	var bestN int64 = -1
	for s, n := range l.StrideHist {
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	if l.StrideSamples == 0 {
		return 0, 0
	}
	return best, float64(bestN) / float64(l.StrideSamples)
}

// LinesPerRef returns #L/#R: unique lines over references.
func (l *LoadStat) LinesPerRef() float64 {
	if l.Refs == 0 {
		return 0
	}
	return float64(l.UniqueLines) / float64(l.Refs)
}

// MissRate returns the load's L1 miss rate.
func (l *LoadStat) MissRate() float64 {
	if l.Refs == 0 {
		return 0
	}
	return float64(l.Misses) / float64(l.Refs)
}

// MemPort is the SM's injection point into the shared memory system. The
// serial engine wires the dram.MemSystem in directly; the parallel engine
// substitutes a per-SM buffer that defers the injection to its barrier so
// SMs on different goroutines never touch shared state mid-epoch. Request
// is fire-and-forget (responses come back through HandleFill), which is
// what makes the deferred replay observationally identical.
type MemPort interface {
	Request(req arch.MemReq, cycle int64)
}

// SM is one streaming multiprocessor.
type SM struct {
	id   int
	cfg  config.Config
	kern kernel.Kernel

	Sched sched.Scheduler
	pf    prefetch.Prefetcher
	sap   *prefetch.SAP // non-nil only under APRES coupling
	l1    *mem.Cache
	mem   MemPort

	warps       []warpCtx
	alive       int
	nextLaunch  int
	totalLaunch int

	// The three per-cycle queues advance a head index instead of
	// re-slicing so their backing arrays are reused for the whole run:
	// the LSU path must not allocate per operation.
	lsuQ    []lsuOp
	lsuHead int
	// lsuBlocked is set when the head load found the MSHR file full with its
	// line neither resident nor in flight, and cleared by the next HandleFill.
	// Until then every retry would stall the same way: residency changes only
	// in l1.Fill, an MSHR entry appears only when Access allocates one
	// (impossible while the file is full — a prefetch probing a full file is
	// dropped, not queued) and the file drains only in l1.Fill. So a blocked
	// LSU counts its stall cycles without probing the L1, and its queue is
	// not work the SM needs a Tick for.
	lsuBlocked  bool
	pfQ         []prefetch.Request
	pfHead      int
	completions []completion
	compHead    int

	// pfQueued holds the lines of the requests waiting in pfQ.
	pfQueued mem.LineTable[struct{}]
	// pfAcc has one record per static load that has issued a prefetch: a
	// handful per kernel, so it is a slice scanned linearly.
	pfAcc []pfAccuracy

	// Warp readiness is tracked incrementally so readyMask is a handful
	// of mask operations instead of a scan over every warp's walker each
	// cycle (the scan dominated the simulator's profile). The masks are
	// updated at the state transitions that can change them: instruction
	// advance, issue scheduling, completion/fill, warp finish/relaunch.
	readyTime arch.WarpMask // warps whose nextIssue cycle has arrived
	doneM     arch.WarpMask // warps whose slot has finished for good
	memDepM   arch.WarpMask // warps whose next instruction depends on memory
	memOpM    arch.WarpMask // warps whose next instruction is a load/store
	outM      arch.WarpMask // warps with outstanding demand lines in flight
	allM      arch.WarpMask // every warp slot of this SM
	// ring is the nextIssue expiry calendar: ring[c%len] holds the warps
	// whose pipeline delay ends at cycle c. len is PipelineDepth+1, the
	// longest delay issueTick ever schedules, and ringBase is the first
	// cycle not yet folded into readyTime.
	ring     []arch.WarpMask
	ringBase int64

	st *stats.Stats

	// tr is the trace sink (nil = tracing off). The issue/stall trackers
	// below record the last emitted warp-level state so events fire only on
	// transitions; the stall classifier is written against masks that are
	// invariant across cycle-skipped gaps, so the event stream is identical
	// whether idle cycles are executed or skipped.
	tr            *trace.Tracer
	trLastWarp    int32
	trStalled     bool
	trStallReason int64

	// CollectLoadStats enables per-PC characterisation (Table I).
	CollectLoadStats bool
	loadStats        map[arch.PC]*LoadStat

	laneBuf   []arch.Addr
	lineBuf   []arch.LineAddr
	targetBuf []prefetch.Target
}

// NewSM builds an SM running the given kernel slice. The scheduler is
// constructed here so it can observe the SM through the View interface.
func NewSM(id int, cfg config.Config, kern kernel.Kernel, memSys MemPort, st *stats.Stats) (*SM, error) {
	nWarps := kern.WarpsPerSM
	if nWarps <= 0 || nWarps > cfg.WarpsPerSM {
		nWarps = cfg.WarpsPerSM
	}
	sm := &SM{
		id:        id,
		cfg:       cfg,
		kern:      kern,
		l1:        mem.NewCache(fmt.Sprintf("L1.%d", id), cfg.L1SizeBytes, cfg.L1Ways, cfg.L1MSHRs),
		mem:       memSys,
		warps:     make([]warpCtx, nWarps),
		alive:     nWarps,
		pfQueued:  mem.NewLineTable[struct{}](pfQueueMax),
		st:        st,
		loadStats: make(map[arch.PC]*LoadStat),
		laneBuf:   make([]arch.Addr, arch.WarpSize),
	}
	sm.totalLaunch = kern.TotalLaunches()
	sm.nextLaunch = nWarps
	if sm.totalLaunch < nWarps {
		sm.totalLaunch = nWarps
	}
	ringLen := cfg.PipelineDepth + 1
	if ringLen < 2 {
		ringLen = 2
	}
	sm.ring = make([]arch.WarpMask, ringLen)
	for i := range sm.warps {
		w := arch.WarpID(i)
		sm.warps[i].wid = w
		sm.warps[i].walker = kernel.NewWalker(&sm.kern.Program, w)
		sm.allM = sm.allM.Set(w)
		sm.refreshInstMasks(w)
	}
	// Every warp starts with nextIssue == 0, i.e. already eligible.
	sm.readyTime = sm.allM
	s, err := sched.New(cfg, nWarps, sm)
	if err != nil {
		return nil, err
	}
	sm.Sched = s
	if cfg.APRESCoupling {
		sm.sap = prefetch.NewSAP(cfg.SAPPTEntries, cfg.SAPDRQEntries, cfg.SAPStrideGate)
	} else {
		p, err := prefetch.New(cfg)
		if err != nil {
			return nil, err
		}
		sm.pf = p
	}
	return sm, nil
}

// SetTracer attaches the trace sink to the SM and the components it owns
// (L1, LAWS when the scheduler supports tracing, SAP). nil disables tracing
// (the default).
func (sm *SM) SetTracer(tr *trace.Tracer) {
	sm.tr = tr
	sm.trLastWarp = -1
	sm.l1.SetTracer(tr, int32(sm.id))
	if s, ok := sm.Sched.(interface {
		SetTracer(*trace.Tracer, int32)
	}); ok {
		s.SetTracer(tr, int32(sm.id))
	}
	if sm.sap != nil {
		sm.sap.SetTracer(tr, int32(sm.id))
	}
}

// MemSaturated implements sched.View for MASCAR.
func (sm *SM) MemSaturated() bool {
	return sm.l1.MSHRCount() >= sm.cfg.MASCARSaturationMSHRs
}

// NextIsMem implements sched.View.
func (sm *SM) NextIsMem(w arch.WarpID) bool {
	wc := &sm.warps[w]
	if wc.done {
		return false
	}
	op := wc.walker.Peek().Op
	return op == kernel.OpLoad || op == kernel.OpStore
}

// lsuLen returns the number of queued LSU operations.
func (sm *SM) lsuLen() int { return len(sm.lsuQ) - sm.lsuHead }

// lsuRunnable reports whether the LSU has an operation it could complete
// next cycle: one is queued and the head is not asleep on a full MSHR file.
func (sm *SM) lsuRunnable() bool { return sm.lsuHead < len(sm.lsuQ) && !sm.lsuBlocked }

// pfLen returns the number of queued prefetch injections.
func (sm *SM) pfLen() int { return len(sm.pfQ) - sm.pfHead }

// compLen returns the number of outstanding hit completions.
func (sm *SM) compLen() int { return len(sm.completions) - sm.compHead }

// Done reports whether all warps have exited and no local work remains.
func (sm *SM) Done() bool {
	return sm.alive == 0 && sm.lsuLen() == 0 && sm.compLen() == 0
}

// Stats returns the SM's counters.
func (sm *SM) Stats() *stats.Stats { return sm.st }

// LoadStats returns the per-PC characterisation records (Table I); only
// populated when CollectLoadStats is set.
func (sm *SM) LoadStats() map[arch.PC]*LoadStat { return sm.loadStats }

// L1 exposes the L1 cache (for tests and end-of-run accounting).
func (sm *SM) L1() *mem.Cache { return sm.l1 }

// HandleFill delivers a memory response to the L1, and wakes a blocked LSU:
// the fill may have installed the head's line or freed the entry it needs.
func (sm *SM) HandleFill(r dram.Response, cycle int64) {
	sm.lsuBlocked = false
	fo := sm.l1.Fill(r.Req.Line, cycle)
	if fo.Entry == nil {
		return
	}
	e := fo.Entry
	if e.Prefetch {
		sm.st.PrefetchFills++
		if fo.PrefetchCompletedUseful {
			sm.st.PrefetchUseful++
		}
	}
	if fo.VictimValid {
		sm.Sched.OnLineEvicted(fo.VictimOwner, fo.VictimTag)
		if fo.VictimUnusedPrefetch {
			sm.notePrefetchOutcome(fo.VictimPrefetchPC, false)
		}
	}
	for _, w := range e.Waiters {
		if w.Kind != arch.AccessLoad {
			continue
		}
		wc := &sm.warps[w.Warp]
		wc.outstanding--
		if wc.outstanding == 0 {
			sm.outM = sm.outM.Clear(w.Warp)
		}
		sm.st.MemLatencySum += cycle - w.IssueCycle
		sm.st.MemLatencyCount++
	}
}

// Tick advances the SM by one cycle: expire hit completions, process one
// LSU operation, then issue one instruction. It reports whether the SM is
// certainly busy next cycle too — it issued, or prefetch work or LSU work it
// can act on (see lsuBlocked) is still queued. After a busy tick the run loop
// ticks again without asking NextWakeup; only an idle tick is worth the
// wake-bound computation.
func (sm *SM) Tick(cycle int64) (busy bool) {
	sm.st.Cycles = cycle + 1
	sm.expireCompletions(cycle)
	sm.lsuTick(cycle)
	issued := sm.issueTick(cycle)
	return issued || sm.lsuRunnable() || sm.pfLen() > 0
}

func (sm *SM) expireCompletions(cycle int64) {
	for sm.compHead < len(sm.completions) && sm.completions[sm.compHead].cycle <= cycle {
		w := sm.completions[sm.compHead].warp
		wc := &sm.warps[w]
		wc.outstanding--
		if wc.outstanding == 0 {
			sm.outM = sm.outM.Clear(w)
		}
		sm.compHead++
	}
	if sm.compHead == len(sm.completions) {
		sm.completions = sm.completions[:0]
		sm.compHead = 0
	}
}

// NextWakeup returns the earliest cycle strictly after cycle at which the
// SM could make progress on its own: pending prefetch or runnable LSU work
// next cycle, the next hit completion, or the next issue slot of a warp that
// is not waiting on memory. When every live warp is blocked on an in-flight
// fill it returns a far-future sentinel — only a NoC delivery (an event
// the global loop bounds separately) can wake the SM. The global loop may
// skip the clock to the minimum wakeup across components; every skipped
// cycle is then accounted through SkipIdle, keeping results bit-identical
// to the cycle-by-cycle loop.
func (sm *SM) NextWakeup(cycle int64) int64 {
	if sm.lsuRunnable() || sm.pfLen() > 0 {
		return cycle + 1
	}
	if sm.readyMask(cycle) != 0 {
		// A warp could still issue (the scheduler may simply have declined
		// to pick one this cycle): tick again next cycle.
		return cycle + 1
	}
	next := int64(1) << 62
	if sm.compHead < len(sm.completions) {
		next = sm.completions[sm.compHead].cycle
	}
	// Earliest calendar slot holding a warp that nothing besides its
	// pipeline delay blocks. Memory-blocked warps are excluded: the event
	// that unblocks them is a completion (bounded above) or a fill, and
	// fills always arrive through a NoC delivery the global loop bounds
	// separately.
	cand := sm.allM &^ sm.doneM &^ (sm.memDepM & sm.outM)
	n := int64(len(sm.ring))
	for c := sm.ringBase; c < sm.ringBase+n && c < next; c++ {
		if sm.ring[c%n]&cand != 0 {
			next = c
			break
		}
	}
	if next <= cycle+1 {
		return cycle + 1
	}
	return next
}

// SkipIdle accounts the provably idle cycles from..to (inclusive) the
// event-driven loop jumped over: the cycle-by-cycle loop would have
// Ticked the SM through each one, found no ready warp, and recorded one
// issue-stall cycle — plus, with the LSU blocked, one L1 stall for the head's
// retry. Nothing else in Tick can fire on an idle cycle.
// Under tracing, that hypothetical Tick would also have run the stall
// classifier, so the same transition event is emitted here (the caller has
// advanced the tracer clock to the first skipped cycle); the reason is
// gap-invariant (see stallReason), so one event covers the whole stretch
// exactly as the transition filter would in the cycle-by-cycle loop.
func (sm *SM) SkipIdle(from, to int64) {
	sm.st.IssueStallCycles += to - from + 1
	if sm.lsuBlocked {
		sm.st.L1Stalls += to - from + 1
	}
	sm.st.Cycles = to + 1
	if sm.tr != nil {
		sm.traceStall(sm.stallReason())
	}
}

// refreshInstMasks reclassifies warp w's next instruction into the
// memory-dependence and memory-op masks after its walker moved.
func (sm *SM) refreshInstMasks(w arch.WarpID) {
	in := sm.warps[w].walker.Peek()
	b := arch.Bit(w)
	sm.memDepM &^= b
	sm.memOpM &^= b
	if in.DependsOnMem {
		sm.memDepM |= b
	}
	if in.Op == kernel.OpLoad || in.Op == kernel.OpStore {
		sm.memOpM |= b
	}
}

// ringFlush folds every calendar slot due at or before cycle into
// readyTime. Slot cycles always lie in [ringBase, ringBase+len), so a jump
// of a full ring length simply folds everything.
func (sm *SM) ringFlush(cycle int64) {
	if cycle < sm.ringBase {
		return
	}
	n := int64(len(sm.ring))
	if cycle-sm.ringBase >= n-1 {
		for i := range sm.ring {
			sm.readyTime |= sm.ring[i]
			sm.ring[i] = 0
		}
	} else {
		for c := sm.ringBase; c <= cycle; c++ {
			sm.readyTime |= sm.ring[c%n]
			sm.ring[c%n] = 0
		}
	}
	sm.ringBase = cycle + 1
}

// scheduleIssue moves warp w out of the ready set until cycle at: it is
// removed from any calendar slot it still occupies (a relaunch reschedules
// before the first delay expires) and parked in the slot for at.
func (sm *SM) scheduleIssue(w arch.WarpID, cycle, at int64) {
	b := arch.Bit(w)
	n := int64(len(sm.ring))
	if wc := &sm.warps[w]; wc.nextIssue >= sm.ringBase {
		sm.ring[wc.nextIssue%n] &^= b
	}
	if at <= cycle {
		at = cycle + 1
	}
	sm.warps[w].nextIssue = at
	sm.readyTime &^= b
	sm.ring[at%n] |= b
}

// readyMask returns the set of warps able to issue this cycle. The masks
// make it O(1): a warp is ready when its pipeline delay has expired
// (readyTime, maintained by the expiry calendar), it has not finished, and
// its next instruction is not waiting on an in-flight line — minus, when
// the LSU queue is full, every warp about to issue a memory op.
func (sm *SM) readyMask(cycle int64) arch.WarpMask {
	sm.ringFlush(cycle)
	m := sm.readyTime &^ sm.doneM &^ (sm.memDepM & sm.outM)
	if sm.lsuLen() >= lsuQueueMax {
		m &^= sm.memOpM
	}
	return m
}

// stallReason classifies why no instruction issued this cycle. It reads
// only masks that cannot change during a provably idle stretch (doneM,
// memDepM, outM are touched only by issues, completions, and fills — all of
// which bound NextWakeup), so the classification is constant across a
// cycle-skipped gap and transition events stay identical between the
// event-driven and cycle-by-cycle loops.
func (sm *SM) stallReason() int64 {
	live := sm.allM &^ sm.doneM
	if live == 0 {
		return trace.StallDrained
	}
	issuable := live &^ (sm.memDepM & sm.outM)
	if issuable == 0 {
		return trace.StallMemDep
	}
	if sm.readyTime&issuable != 0 {
		// Delay-expired, non-blocked warps existed but readyMask removed
		// them: only the LSU-full memory-op mask can have done that.
		return trace.StallLSUFull
	}
	return trace.StallPipeline
}

// traceStall emits a warp_stall event when the SM enters a stall or its
// stall reason changes.
func (sm *SM) traceStall(reason int64) {
	if sm.trStalled && sm.trStallReason == reason {
		return
	}
	sm.trStalled = true
	sm.trStallReason = reason
	sm.trLastWarp = -1
	sm.tr.Emit(trace.Event{Kind: trace.KindWarpStall, Unit: int32(sm.id),
		Warp: -1, Arg: reason})
}

// issueTick issues at most one instruction and reports whether it did.
func (sm *SM) issueTick(cycle int64) bool {
	ready := sm.readyMask(cycle)
	if ready == 0 {
		sm.st.IssueStallCycles++
		if sm.tr != nil {
			sm.traceStall(sm.stallReason())
		}
		return false
	}
	w, ok := sm.Sched.Pick(ready, cycle)
	if !ok {
		sm.st.IssueStallCycles++
		if sm.tr != nil {
			sm.traceStall(trace.StallScheduler)
		}
		return false
	}
	wc := &sm.warps[w]
	in := wc.walker.Peek()
	if sm.tr != nil && (sm.trStalled || sm.trLastWarp != int32(w)) {
		sm.trStalled = false
		sm.trLastWarp = int32(w)
		sm.tr.Emit(trace.Event{Kind: trace.KindWarpIssue, Unit: int32(sm.id),
			Warp: int32(w), PC: uint32(in.PC), Arg: int64(wc.wid)})
	}
	sm.st.Instructions++
	sm.st.RegFileAccesses++
	// The paper's 8-cycle issue-to-execute latency applies to dependent
	// instruction pairs: memory operations (address RAW) and the
	// dependent first use of loaded data. Independent instructions in a
	// burst issue back to back.
	if in.Op == kernel.OpLoad || in.Op == kernel.OpStore || in.DependsOnMem {
		sm.scheduleIssue(w, cycle, cycle+int64(sm.cfg.PipelineDepth))
	} else {
		sm.scheduleIssue(w, cycle, cycle+1)
	}

	switch in.Op {
	case kernel.OpALU:
		// Pipeline latency already modelled by nextIssue.
	case kernel.OpShared:
		sm.st.SharedMemAccesses++
	case kernel.OpLoad:
		sm.issueMemOp(w, wc, in, arch.AccessLoad, cycle)
	case kernel.OpStore:
		sm.issueMemOp(w, wc, in, arch.AccessStore, cycle)
	}

	wc.walker.Advance()
	if wc.walker.Done() && !wc.done {
		if sm.nextLaunch < sm.totalLaunch {
			// CTA refill: a fresh logical warp takes over the slot.
			wid := arch.WarpID(sm.nextLaunch)
			sm.nextLaunch++
			wc.wid = wid
			wc.walker = kernel.NewWalker(&sm.kern.Program, wid)
			sm.scheduleIssue(w, cycle, cycle+int64(sm.cfg.PipelineDepth))
			sm.refreshInstMasks(w)
			sm.Sched.OnWarpRelaunched(w)
		} else {
			wc.done = true
			sm.doneM = sm.doneM.Set(w)
			sm.alive--
			sm.Sched.OnWarpFinished(w)
		}
	} else if !wc.done {
		sm.refreshInstMasks(w)
	}
	return true
}

func (sm *SM) issueMemOp(w arch.WarpID, wc *warpCtx, in *kernel.Inst, kind arch.AccessKind, cycle int64) {
	iter := wc.walker.Iter()
	in.Pattern.LaneAddrs(sm.laneBuf, sm.id, wc.wid, iter)
	sm.lineBuf = kernel.Coalesce(sm.lineBuf, sm.laneBuf)
	group := sched.NoGroup
	if kind == arch.AccessLoad {
		group = sm.Sched.OnLoadIssued(w, in.PC)
		if group != sched.NoGroup {
			// LLT lookup + WGT allocation.
			sm.st.APRESTableAccesses += 2
		}
		if sm.CollectLoadStats {
			sm.recordLoad(in.PC, wc.wid, sm.laneBuf[0], len(sm.lineBuf))
		}
	}
	if sm.lsuHead > 0 && len(sm.lsuQ)+len(sm.lineBuf) > cap(sm.lsuQ) {
		// Compact before growing so the queue reuses its array instead of
		// reallocating every few thousand operations.
		n := copy(sm.lsuQ, sm.lsuQ[sm.lsuHead:])
		sm.lsuQ = sm.lsuQ[:n]
		sm.lsuHead = 0
	}
	for i, l := range sm.lineBuf {
		op := lsuOp{
			req: arch.MemReq{
				Line:       l,
				Kind:       kind,
				Warp:       w,
				PC:         in.PC,
				SM:         sm.id,
				IssueCycle: cycle,
			},
			addr:  sm.laneBuf[0],
			wid:   wc.wid,
			lead:  i == 0 && kind == arch.AccessLoad,
			group: group,
		}
		sm.lsuQ = append(sm.lsuQ, op)
		if kind == arch.AccessLoad {
			wc.outstanding++
		}
	}
	if wc.outstanding > 0 {
		sm.outM = sm.outM.Set(w)
	}
}

// lsuTick processes one demand operation and one queued prefetch per cycle
// (the prefetcher has its own L1 injection port so demand bursts cannot
// starve it into always-late prefetches).
func (sm *SM) lsuTick(cycle int64) {
	if sm.lsuBlocked {
		sm.st.L1Stalls++
	} else if sm.lsuHead < len(sm.lsuQ) {
		if sm.processDemand(&sm.lsuQ[sm.lsuHead], cycle) {
			sm.lsuHead++
			if sm.lsuHead == len(sm.lsuQ) {
				sm.lsuQ = sm.lsuQ[:0]
				sm.lsuHead = 0
			}
		}
	}
	if sm.pfHead < len(sm.pfQ) {
		r := sm.pfQ[sm.pfHead]
		if sm.processPrefetch(r, cycle) {
			sm.pfQueued.Delete(r.Addr.Line())
			sm.pfHead++
			if sm.pfHead == len(sm.pfQ) {
				sm.pfQ = sm.pfQ[:0]
				sm.pfHead = 0
			}
		}
	}
}

// processDemand returns false if the access stalled — which blocks the LSU
// until the next fill — and must retry.
func (sm *SM) processDemand(op *lsuOp, cycle int64) bool {
	if op.req.Kind == arch.AccessStore {
		// Write-through, no-allocate: straight to the memory system.
		sm.mem.Request(op.req, cycle)
		return true
	}
	prevHit, prevKnown := sm.l1.LastDemandWasHit()
	out := sm.l1.Access(op.req, cycle)
	switch out.Result {
	case arch.ResultStall:
		sm.st.L1Stalls++
		sm.lsuBlocked = true
		return false
	case arch.ResultHit:
		sm.st.L1Accesses++
		sm.st.L1Hits++
		if prevKnown && prevHit {
			sm.st.L1HitAfterHit++
		} else {
			sm.st.L1HitAfterMiss++
		}
		if out.FirstUseOfPrefetch {
			sm.st.PrefetchUseful++
			sm.notePrefetchOutcome(out.PrefetchPC, true)
		}
		if sm.compHead > 0 && len(sm.completions) == cap(sm.completions) {
			n := copy(sm.completions, sm.completions[sm.compHead:])
			sm.completions = sm.completions[:n]
			sm.compHead = 0
		}
		sm.completions = append(sm.completions, completion{
			cycle: cycle + int64(sm.cfg.L1HitLatency),
			warp:  op.req.Warp,
		})
	case arch.ResultMiss:
		sm.st.L1Accesses++
		sm.countMiss(out)
		sm.mem.Request(op.req, cycle)
	case arch.ResultMergedMSHR:
		sm.st.L1Accesses++
		sm.st.L1MSHRMerges++
		if out.MergedIntoPrefetch {
			sm.st.L1PrefetchMerges++
			if out.Entry != nil {
				sm.notePrefetchOutcome(out.Entry.PC, true)
			}
		}
		if out.ProvesEarlyEviction {
			sm.st.PrefetchEarlyEvicted++
		}
	}
	if sm.CollectLoadStats && out.Result != arch.ResultHit {
		if ls := sm.loadStats[op.req.PC]; ls != nil {
			ls.Misses++
		}
	}
	if op.lead {
		sm.onLeadResult(op, out.Result == arch.ResultHit, cycle)
	}
	return true
}

func (sm *SM) countMiss(out mem.Outcome) {
	switch out.Class {
	case arch.MissCold:
		sm.st.L1ColdMisses++
	case arch.MissCapacityConflict:
		sm.st.L1CapConfMisses++
	}
	if out.ProvesEarlyEviction {
		sm.st.PrefetchEarlyEvicted++
	}
}

// onLeadResult drives the scheduler/prefetcher feedback loop once per load
// instruction, using the lead line's L1 outcome (Figure 5's LSU feedback).
func (sm *SM) onLeadResult(op *lsuOp, hit bool, cycle int64) {
	group := sm.Sched.OnCacheResult(op.req.Warp, op.req.PC, op.req.Line, hit, op.group)
	if sm.sap != nil {
		if !hit && group != 0 {
			// PT lookup + WQ/DRQ writes.
			sm.st.APRESTableAccesses += 3
			// SAP never retains the targets slice, so one buffer serves
			// every group miss.
			targets := sm.targetBuf[:0]
			for m := group & sm.allM &^ sm.doneM; m != 0; m &= m - 1 {
				slot := m.Lowest()
				targets = append(targets, prefetch.Target{Slot: slot, Wid: sm.warps[slot].wid})
			}
			sm.targetBuf = targets
			reqs := sm.sap.OnGroupMiss(op.req.PC, op.wid, op.addr, targets, cycle)
			if len(reqs) > 0 {
				var targets arch.WarpMask
				for _, r := range reqs {
					targets = targets.Set(r.Warp)
				}
				sm.enqueuePrefetches(reqs)
				// SAP sends the prefetched warp IDs back to LAWS
				// for prioritisation (Section IV.B).
				sm.Sched.PrioritizeWarps(targets)
			}
		}
		return
	}
	if sm.pf != nil {
		sm.enqueuePrefetches(sm.pf.OnAccess(op.req.PC, op.wid, op.req.Warp, op.addr, hit))
	}
}

// enqueuePrefetches queues prefetch requests, silently squashing ones whose
// line is already resident, in flight, or queued (the hardware's MSHR/tag
// probe at prefetch generation).
func (sm *SM) enqueuePrefetches(reqs []prefetch.Request) {
	for _, r := range reqs {
		line := r.Addr.Line()
		if sm.l1.Contains(line) || sm.l1.InFlight(line) {
			continue
		}
		if sm.pfQueued.Has(line) {
			continue
		}
		if acc := sm.pfAccFor(r.PC); acc != nil && acc.blocked() {
			sm.st.PrefetchDropped++
			continue
		}
		if sm.pfLen() >= pfQueueMax {
			sm.st.PrefetchDropped++
			continue
		}
		sm.pfQueued.Put(line, struct{}{})
		if sm.pfHead > 0 && len(sm.pfQ) == cap(sm.pfQ) {
			n := copy(sm.pfQ, sm.pfQ[sm.pfHead:])
			sm.pfQ = sm.pfQ[:n]
			sm.pfHead = 0
		}
		sm.pfQ = append(sm.pfQ, r)
	}
}

// processPrefetch returns false if the L1 stalled the prefetch.
func (sm *SM) processPrefetch(r prefetch.Request, cycle int64) bool {
	req := arch.MemReq{
		Line:       r.Addr.Line(),
		Kind:       arch.AccessPrefetch,
		Warp:       r.Warp,
		PC:         r.PC,
		SM:         sm.id,
		IssueCycle: cycle,
	}
	out := sm.l1.Access(req, cycle)
	switch out.Result {
	case arch.ResultStall:
		// Prefetches are best-effort: drop rather than block the LSU.
		sm.st.PrefetchDropped++
		return true
	case arch.ResultHit, arch.ResultMergedMSHR:
		sm.st.PrefetchDropped++
		return true
	case arch.ResultMiss:
		sm.st.PrefetchIssued++
		acc := sm.pfAccFor(req.PC)
		if acc == nil {
			sm.pfAcc = append(sm.pfAcc, pfAccuracy{pc: req.PC})
			acc = &sm.pfAcc[len(sm.pfAcc)-1]
		}
		acc.issued++
		acc.decayIfFull()
		sm.mem.Request(req, cycle)
		return true
	}
	return true
}

// pfAccFor returns pc's prefetch-accuracy record, or nil if the load has not
// issued a prefetch yet.
func (sm *SM) pfAccFor(pc arch.PC) *pfAccuracy {
	for i := range sm.pfAcc {
		if sm.pfAcc[i].pc == pc {
			return &sm.pfAcc[i]
		}
	}
	return nil
}

func (sm *SM) notePrefetchOutcome(pc arch.PC, good bool) {
	acc := sm.pfAccFor(pc)
	if acc == nil {
		return
	}
	if good {
		acc.good++
	} else {
		acc.bad++
	}
}

func (sm *SM) recordLoad(pc arch.PC, w arch.WarpID, addr arch.Addr, lines int) {
	ls := sm.loadStats[pc]
	if ls == nil {
		ls = &LoadStat{
			PC:         pc,
			StrideHist: make(map[int64]int64),
		}
		sm.loadStats[pc] = ls
	}
	ls.Issues++
	ls.Refs += int64(lines)
	for i := 0; i < lines; i++ {
		if !ls.seen.Put(sm.lineBuf[i], struct{}{}) {
			ls.UniqueLines++
		}
	}
	if ls.hasLast && w != ls.lastWarp {
		stride := (int64(addr) - int64(ls.lastAddr)) / (int64(w) - int64(ls.lastWarp))
		ls.StrideHist[stride]++
		ls.StrideSamples++
	}
	ls.lastWarp, ls.lastAddr, ls.hasLast = w, addr, true
}

// FinalizePrefetchStats folds end-of-run prefetch outcomes (unused evicted
// lines never demanded again) into the useless-prefetch counter.
func (sm *SM) FinalizePrefetchStats() {
	sm.st.PrefetchUseless += int64(sm.l1.UnresolvedEarlyEvictions())
}
