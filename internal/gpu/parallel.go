// Parallel execution engine: deterministic epoch/barrier sharding of the
// per-SM simulation loop (gpu.WithParallelSMs).
//
// SMs interact with each other only through the shared memory system (L2 +
// DRAM) and the NoC, and both interactions have architectural latency
// floors. The engine exploits that: it chains *epochs* — windows of cycles
// in which every response any SM can receive is known, per SM, at window
// start — and falls back to *serial steps* (one cycle of the exact serial
// loop body) only when a window would be too short to pay for its barrier.
// Inside an epoch every SM's evolution depends only on its own state plus
// its own pre-computed response schedule, so disjoint SM partitions advance
// on worker goroutines in parallel. Memory-system injections made during
// the epoch are buffered per SM (smPort) and replayed at the barrier in
// canonical (cycle, SM, issue-order) order — exactly the order the serial
// loop would have used — so the shared side's state, statistics, and event
// sequencing are bit-identical to a serial run. The equivalence suite
// (parallel_equiv_test.go, fuzz_equiv_test.go) enforces this for cycles,
// every statistic, trace streams, and interval samples, at every worker
// count.
//
// Epoch windows. Cycles [S, E] form a valid epoch when
//
//	E <= S + min(L2Latency, DRAMLatency) - 1   (latency floor)
//	E <  memSys.NextFillCycle()   only if retries are pending at S
//
// Unlike the engine's first incarnation, DRAM fills ARE allowed to pop
// inside the window. What makes that sound is that every response a window
// can produce is attributable, at S or by its own issuing worker, to the SM
// that will receive it:
//
//   - Frozen events. Every event already in the ring at S that pops at or
//     before E has a fully determined outcome: an L2 hit's response (target
//     SM, ready cycle) was fixed at issue; a DRAM fill's frozen waiter list
//     is fixed because waiters only accrue from new requests. The engine
//     captures all of them at epoch start (memSys.PeekWindowResponses) into
//     per-SM schedules ordered by (pop cycle, event seq, waiter index) —
//     the exact order the serial loop enqueues them into the NoC.
//   - Window-issued requests. A request issued at cycle c in [S, E] can
//     hit (event at c+L2Latency > E), miss into DRAM (fill at >=
//     c+DRAMLatency > E), stall, or merge into an in-flight fill. Only the
//     merge can produce a response inside the window — when the fill pops
//     at t in (c, E] — and only into a *frozen* fill: entries created
//     during the window pop after E by the latency floor. The issuing
//     worker detects this itself: a line cannot be resident while its fill
//     is in flight and entries retire only when their fill pops, so the
//     frozen fill map (memSys.FillFor, read-only during the window) says
//     "merge at t" exactly when the serial replay will, and the worker
//     inserts the mirrored response into its own schedule at its (t, seq)
//     position.
//   - Stalls and retries. A request that stalls inside the window (MSHR
//     file full) cannot produce an in-window response when it retries: a
//     retry merges only if some entry for its line exists, and merges are
//     checked before stalls, so the original request would have merged —
//     any entry appearing later was created in-window and pops after E.
//     Retries of requests already pending at S are the one exception — the
//     frozen MSHR occupancy can free mid-window and let them merge into a
//     frozen fill — so when retries are pending at S the planner caps the
//     window before the first fill pop, restoring the stricter PR 6 bound.
//
// Each worker therefore runs the full serial per-SM cycle body — enqueue
// due scheduled responses, deliver, fill, done-check, skip-or-tick —
// against its own NoC queue, enqueueing each scheduled response at its
// exact serial cycle so the queue's FIFO order (a persistent observable:
// the head blocks later-ready responses) matches the serial loop's. The NoC
// decomposes per SM throughout: queues, credits, delivered-byte
// accumulators (noc per-SM Deliver/Enqueue concurrency contracts).
//
// The barrier drain then replays buffered memory injections in canonical
// (cycle, SM, issue-order) order, running memSys.Tick at each due cycle
// interleaved exactly as the serial loop would — stats, MSHR and DRAM-slot
// state, retries, and event sequencing all evolve identically — but
// enqueues nothing: every response produced by an in-window Tick was
// already enqueued worker-side (scheduled or mirrored), and events created
// by the replay itself pop after E.
//
// Hand-off and layout. Workers are persistent goroutines, each owning one
// contiguous block of SMs, and an epoch is handed over through a
// sequence-numbered barrier (epochBarrier) rather than a channel send and a
// wake-up per epoch: both sides spin on cache-line-private atomics for a
// bounded, self-tuned time and only then park. New starts no more workers
// than GOMAXPROCS, so each can have a processor to spin on. The words a
// worker writes every cycle for an SM — its wakeup bound, port, schedule and
// epoch observations here (smLane), its queue and credit in the NoC — sit in
// one padded slot per SM, so cores working on neighbouring SMs never write
// the same line.
//
// Tracing. A traced run takes exactly the windows an untraced one does.
// Each SM emits into its own local tracer — its NoC injections and
// deliveries too (noc.SetSMTracers) — stamped by its worker's clock. The
// barrier walks the window cycle by cycle and rebuilds the serial order of
// each cycle: memSys.Tick(c) emits the shared side's events and returns its
// responses in the serial loop's enqueue order; for each response the
// barrier moves the head of that SM's unmerged local stream, the worker's
// KindNoCInject for it (with the queue depth the worker saw), into the
// shared stream; then it splices each SM's remaining events at c with its
// buffered requests by stream position, SM by SM.
package gpu

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"apres/internal/arch"
	"apres/internal/dram"
	"apres/internal/stats"
	"apres/internal/trace"
)

// minEpochCycles is the shortest window worth fanning out; anything shorter
// runs as serial steps to avoid paying the barrier for trivial gains.
const minEpochCycles = 8

// parTraceBlockEvents sizes each SM's local capture block in parallel
// traced runs (small: there are NumSMs of them and flushes go to an
// in-memory sink).
const parTraceBlockEvents = 2048

// bufferedReq is one memory-system injection captured by an smPort during
// an epoch or serial step: the request, its issue cycle, and — when tracing
// — its position in the SM's local event stream, so the barrier replay can
// reproduce the serial interleaving of SM-side trace events with the
// L2Enter/DRAMEnter events the injection emits.
type bufferedReq struct {
	req   arch.MemReq
	cycle int64
	pos   int64
}

// smPort is the per-SM core.MemPort in parallel mode: SMs never touch the
// shared memory system directly; they append here and the barrier replays
// in canonical order. Request is called from worker goroutines, but each
// port belongs to exactly one SM and therefore one worker.
type smPort struct {
	reqs []bufferedReq
	tr   *trace.Tracer // the SM's local tracer (nil when untraced)
	base int64         // local events already merged (stream position origin)
}

// Request implements core.MemPort.
func (p *smPort) Request(req arch.MemReq, cycle int64) {
	pos := int64(-1)
	if p.tr != nil {
		pos = p.tr.Emitted() - p.base
	}
	p.reqs = append(p.reqs, bufferedReq{req: req, cycle: cycle, pos: pos})
}

// cacheLine is the coherence granule that state written by different
// workers is kept apart by.
const cacheLine = 64

// smLaneState is the engine-side state of one SM that its worker writes on
// (nearly) every executed cycle.
type smLaneState struct {
	// wake caches the SM's NextWakeup bound from its last Tick. On any
	// cycle before wake with no NoC delivery the SM provably does nothing
	// but record one issue stall (and one L1 stall while its LSU is blocked
	// on a full MSHR file: only a delivery's fill can unblock it), so the
	// loops (serial and parallel) account that directly instead of paying
	// the full warp scan in Tick. The cache stays valid between Ticks
	// because only a delivery (which refreshes it) can change the SM's state
	// from outside.
	wake int64

	// port buffers the SM's memory-system injections (parallel runs only)
	// and holds its local tracer.
	port smPort

	// sched is the SM's response schedule for the current epoch: every
	// response it will receive, stamped with the cycle the serial loop
	// enqueues it into the NoC and sorted by (EnqueueCycle, Seq). Built at
	// epoch start from the frozen event ring and extended in place by the
	// SM's worker when its own requests merge into frozen fills.
	sched []dram.Scheduled

	// doneAt is the first cycle of the current epoch at which the SM was
	// observed Done (-1 = not observed), mirroring the serial loop's
	// before-Tick done check so the termination cycle matches exactly.
	doneAt int64

	// lastDeliv is the last cycle of the current epoch at which the SM
	// received a delivery (-1 = none). The serial loop cannot break while
	// responses remain queued, so the termination cycle must account for
	// the epoch's final delivery as well as done observations and memory
	// activity.
	lastDeliv int64
}

// smLane pads smLaneState to whole cache lines. Workers own contiguous
// blocks of SMs, but even the two lanes either side of a block boundary must
// not share a line: each is written every cycle by a different core.
type smLane struct {
	smLaneState
	_ [cacheLine - unsafe.Sizeof(smLaneState{})%cacheLine]byte
}

// Spin tuning for the epoch barrier. A waiter polls spinPolls times between
// clock checks and yields; it parks once it has spun for spinFactor times
// the engine's mean serial section (the time workers normally have to wait
// between epochs), and never longer than maxSpin.
const (
	spinPolls  = 256
	spinFactor = 4
	maxSpin    = time.Millisecond
)

// parker is one side's slot for waiting on the epoch barrier: spin on a
// counter for a bounded time, then block on wake until the other side
// signals. One per goroutine, padded so a parked flag flipping does not
// disturb a neighbour that is spinning.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // buffered 1: at most one signal per parked=true
	_      [cacheLine - 16]byte
}

// await returns once v has reached target. It polls for up to spin, yielding
// the processor every spinPolls polls so an oversubscribed host keeps making
// progress, then parks. spin <= 0 parks at once.
func (p *parker) await(v *atomic.Int64, target int64, spin time.Duration) {
	if spin > 0 {
		for start := time.Now(); ; {
			for i := 0; i < spinPolls; i++ {
				if v.Load() >= target {
					return
				}
			}
			if time.Since(start) >= spin {
				break
			}
			runtime.Gosched()
		}
	}
	for v.Load() < target {
		p.parked.Store(true)
		// Re-check after publishing the flag: either this load sees the
		// counter at target, or the signaller's later load sees the flag.
		if v.Load() >= target && p.parked.CompareAndSwap(true, false) {
			return
		}
		// A signal can be late — sent for a target already seen by spinning —
		// hence the loop.
		<-p.wake
	}
}

// signal wakes the waiter if (and only if) it has parked.
func (p *parker) signal() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// epochBarrier is the hand-off between the coordinating goroutine and the
// persistent workers. The coordinator writes the window, then bumps seq;
// each worker waits for seq to move, advances its block, and bumps done; the
// coordinator runs its own block and waits for done to reach
// seq*len(workers). The two counters live on separate cache lines, each
// written by one side only.
type epochBarrier struct {
	seq atomic.Int64
	win epochWindow // valid for a worker once it has seen seq move
	_   [cacheLine - (8+unsafe.Sizeof(epochWindow{}))%cacheLine]byte

	done atomic.Int64
	_    [cacheLine - 8]byte

	coord   parker
	workers []parker
}

// epochWindow is what the coordinator hands the workers for one epoch.
type epochWindow struct {
	from, to int64
	spin     time.Duration // how long to spin for the next hand-off
	stop     bool          // the run is over: exit instead of advancing
}

// engineScratch is the allocation-heavy per-run working set of the parallel
// engine — response schedules, epoch barrier buffers, snapshot matrices,
// interval boundaries, and the per-SM injection queues — pooled across runs
// so repeated parallel simulations (benchmarks, the daemon) regrow it once
// rather than per Simulate. No simulation state crosses runs: every slice is
// truncated to length zero before reuse and per-epoch state is rebuilt by
// prepareEpoch.
type engineScratch struct {
	sched   [][]dram.Scheduled
	hi      []int
	ri      []int
	trBound []int64
	trSnap  [][]trace.Gauges
	pendTr  []pendingSample
	ports   [][]bufferedReq
}

var engineScratchPool sync.Pool

// pendingSample is an interval sample gathered during an epoch's barrier
// drain, held back until the engine knows whether the run terminated inside
// the epoch (samples past the termination cycle must be discarded, exactly
// as the serial loop never reaches those cycles).
type pendingSample struct {
	cycle int64
	gg    trace.Gauges
}

type parallelEngine struct {
	g      *GPU
	jobs   int
	traced bool
	minLat int64 // min(L2Latency, DRAMLatency)
	retLeg int64 // DRAM-fill return leg, for mirrored merge responses

	// prof counts executed epochs, the cycles they covered, and where the
	// coordinating goroutine's wall time went (Result.EngineStats).
	prof stats.EngineStats
	// stamp is the last phase boundary the profile was charged up to.
	stamp time.Time

	// hi/ri are per-SM cursors into local event streams / request buffers,
	// used by the single-threaded barrier drain.
	hi []int
	ri []int

	// Interval-sampling boundaries inside the current epoch and the per-SM
	// gauge snapshots workers record at each of them (values are frozen
	// across skipped/idle cycles, exactly like the serial sampler's).
	trBound []int64
	trSnap  [][]trace.Gauges
	pendTr  []pendingSample

	// bar hands epochs to the jobs-1 spawned workers. Block 0 has no worker:
	// the coordinating goroutine runs it inline between publishing the
	// window and waiting, so an epoch costs jobs-1 hand-offs, not jobs.
	bar epochBarrier

	// sc is the pooled backing for the slices above (and the lanes'
	// schedules and request buffers); stop() writes regrown headers back and
	// returns it.
	sc *engineScratch
}

func newParallelEngine(g *GPU) *parallelEngine {
	n := len(g.sms)
	jobs := g.smJobs // New clamped it to n
	minLat := int64(g.cfg.L2Latency)
	if d := int64(g.cfg.DRAMLatency); d < minLat {
		minLat = d
	}
	sc, _ := engineScratchPool.Get().(*engineScratch)
	if sc == nil {
		sc = &engineScratch{}
	}
	sc.sched = resizeSnap(sc.sched, n)
	sc.hi = resizeSnap(sc.hi, n)
	sc.ri = resizeSnap(sc.ri, n)
	sc.trSnap = resizeSnap(sc.trSnap, n)
	sc.ports = resizeSnap(sc.ports, n)
	for i := range g.lanes {
		g.lanes[i].sched = sc.sched[i][:0]
		g.lanes[i].port.reqs = sc.ports[i][:0]
	}
	e := &parallelEngine{
		g:       g,
		jobs:    jobs,
		traced:  g.tr != nil,
		minLat:  minLat,
		retLeg:  g.memSys.ReturnLeg(),
		prof:    stats.EngineStats{SMJobs: jobs},
		stamp:   time.Now(),
		hi:      sc.hi,
		ri:      sc.ri,
		trBound: sc.trBound[:0],
		trSnap:  sc.trSnap,
		pendTr:  sc.pendTr[:0],
		sc:      sc,
	}
	// The fill mirrors must cover every fill scheduled from cycle 0 on; the
	// engine exists before the first request enters the system.
	g.memSys.TrackFills(true)
	e.bar.coord.wake = make(chan struct{}, 1)
	e.bar.workers = make([]parker, jobs-1)
	for w := range e.bar.workers {
		e.bar.workers[w].wake = make(chan struct{}, 1)
		go e.worker(w + 1)
	}
	return e
}

// stop retires the worker goroutines — returning once every one of them has
// left its loop — and hands the pooled working sets (the engine's and the
// memory system's fill mirrors) back for the next run.
func (e *parallelEngine) stop() {
	e.fanOut(epochWindow{stop: true})
	e.awaitWorkers(0)
	e.g.memSys.TrackFills(false)
	sc := e.sc
	sc.trBound = e.trBound
	sc.pendTr = e.pendTr[:0]
	for i := range e.g.lanes {
		l := &e.g.lanes[i]
		sc.sched[i], l.sched = l.sched[:0], nil
		sc.ports[i], l.port.reqs = l.port.reqs[:0], nil
	}
	e.sc = nil
	engineScratchPool.Put(sc)
}

// fanOut publishes win to the workers and wakes any that have parked.
func (e *parallelEngine) fanOut(win epochWindow) {
	e.bar.win = win
	e.bar.seq.Add(1)
	for w := range e.bar.workers {
		e.bar.workers[w].signal()
	}
}

// awaitWorkers returns once every worker has finished the window last
// fanned out.
func (e *parallelEngine) awaitWorkers(spin time.Duration) {
	target := e.bar.seq.Load() * int64(len(e.bar.workers))
	e.bar.coord.await(&e.bar.done, target, spin)
}

// worker advances SM block w through each epoch the coordinator fans out.
// Workers touch only per-SM state — the SM itself, its stats, its lane, its
// NoC slot, its local tracer, its snapshot rows — so the only
// synchronisation needed is the epoch hand-off itself.
func (e *parallelEngine) worker(w int) {
	b := &e.bar
	me := &b.workers[w-1]
	var spin time.Duration // park until the first epoch says otherwise
	for seq := int64(1); ; seq++ {
		me.await(&b.seq, seq, spin)
		win := b.win
		if !win.stop {
			e.advanceBlock(w, win.from, win.to)
			spin = win.spin
		}
		if b.done.Add(1) == seq*int64(len(b.workers)) {
			b.coord.signal()
		}
		if win.stop {
			return
		}
	}
}

// blockStart returns the first SM of worker w's block when n SMs are split
// into jobs contiguous blocks whose sizes differ by at most one, larger
// blocks first (15 SMs over 2 workers: [0,8) and [8,15)). blockStart(jobs)
// is n.
func blockStart(w, jobs, n int) int {
	return (w*n + jobs - 1) / jobs
}

// advanceBlock runs every SM of worker w's block through [from, to].
func (e *parallelEngine) advanceBlock(w int, from, to int64) {
	n := len(e.g.sms)
	for i, end := blockStart(w, e.jobs, n), blockStart(w+1, e.jobs, n); i < end; i++ {
		e.advanceSM(i, from, to)
	}
}

// insertSched inserts ent into the sorted region sch[k:] at its
// (EnqueueCycle, Seq) upper bound — after every entry the serial loop
// enqueues at or before it, including earlier-merged waiters of the same
// fill event.
func insertSched(sch []dram.Scheduled, k int, ent dram.Scheduled) []dram.Scheduled {
	lo, hi := k, len(sch)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sch[mid].EnqueueCycle < ent.EnqueueCycle || (sch[mid].EnqueueCycle == ent.EnqueueCycle && sch[mid].Seq <= ent.Seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	sch = append(sch, dram.Scheduled{})
	copy(sch[lo+1:], sch[lo:])
	sch[lo] = ent
	return sch
}

// advanceSM runs one SM through [from, to], mirroring the serial loop's
// per-SM section cycle for cycle: set the local tracer's clock (traced
// runs), enqueue scheduled responses that come due, deliver queued
// responses, hand them to the SM, done check, cached-wakeup bulk skip
// (capped so no delivery or enqueue cycle is jumped over), otherwise Tick —
// and after each Tick, mirror any of the SM's own requests that will merge
// into frozen fills popping inside the window (see the package comment). Interval boundaries are snapshotted as they are
// crossed. Everything touched here is per-SM state — the SM, its stats, its
// lane, its NoC slot, its local tracer, its snapshot rows — which is the
// whole reason the epoch can fan out.
func (e *parallelEngine) advanceSM(i int, from, to int64) {
	g := e.g
	sm := g.sms[i]
	ln := &g.lanes[i].smLaneState
	lt := ln.port.tr
	si := 0
	c := from
	// nd is a conservative-early bound on the SM's next possible delivery
	// cycle; Deliver is only called when c reaches it, which banks credit at
	// a subset of the cycles the serial loop banks at — equivalent, because
	// banking accrues by elapsed cycles (see noc.bankCredit).
	nd := from
	sch := ln.sched
	k := 0  // schedule cursor: entries before k have been enqueued
	ri := 0 // mirror cursor into the SM's buffered requests
	for c <= to {
		if lt != nil {
			lt.Advance(c)
		}
		if k < len(sch) && sch[k].EnqueueCycle <= c {
			// The serial loop's memSys.Tick(c) enqueues these before the
			// cycle's deliveries; pulling them now and re-arming the delivery
			// bound reproduces both the queue order and the delivery timing.
			for k < len(sch) && sch[k].EnqueueCycle <= c {
				g.net.Enqueue(sch[k].Resp)
				k++
			}
			nd = c
		}
		var resp []dram.Response
		if c >= nd {
			resp = g.net.Deliver(i, c)
			if len(resp) > 0 {
				ln.lastDeliv = c
				for _, r := range resp {
					sm.HandleFill(r, c)
				}
			}
			nd = g.net.NextDeliveryCycleSM(i, c)
			if nd < 0 {
				nd = to + 1
			}
		}
		if sm.Done() {
			if ln.doneAt < 0 {
				ln.doneAt = c
			}
			// The serial loop keeps draining a done SM's queue; jump straight
			// to the next cycle a delivery could land on — or the next
			// scheduled enqueue, which may arm one.
			next := nd
			if k < len(sch) && sch[k].EnqueueCycle < next {
				next = sch[k].EnqueueCycle
			}
			if next > to {
				break
			}
			c = next
			continue
		}
		if !g.noSkip && len(resp) == 0 && ln.wake > c {
			end := ln.wake - 1
			if end > to {
				end = to
			}
			if nd-1 < end {
				end = nd - 1
			}
			if k < len(sch) && sch[k].EnqueueCycle-1 < end {
				end = sch[k].EnqueueCycle - 1
			}
			sm.SkipIdle(c, end)
			si = e.snapTrace(i, si, end)
			c = end + 1
			continue
		}
		g.tickSM(i, c)
		// Mirror merges: a request issued this cycle to a line whose frozen
		// fill pops at t in (c, to] will merge into it at the barrier replay,
		// and the serial loop would enqueue its response at t. Insert it at
		// its canonical schedule position. (Stores never respond; see the
		// package comment for why the frozen map is exact during the window.)
		reqs := ln.port.reqs
		for ; ri < len(reqs); ri++ {
			br := &reqs[ri]
			if br.req.Kind == arch.AccessStore {
				continue
			}
			if t, seq, ok := g.memSys.FillFor(br.req.Line); ok && t > c && t <= to {
				sch = insertSched(sch, k, dram.Scheduled{
					EnqueueCycle: t,
					Seq:          seq,
					Resp:         dram.Response{Req: br.req, ReadyCycle: t + e.retLeg},
				})
			}
		}
		si = e.snapTrace(i, si, c)
		c++
	}
	ln.sched = sch
	// Remaining boundaries (SM done, or loop exhausted) see frozen gauges.
	e.snapTrace(i, si, to)
}

// snapTrace records SM i's interval-sample gauges for every boundary up to
// and including upTo. DRAMQueueDepth is shared state and is filled in by
// the barrier drain at the boundary's exact position in the replay.
func (e *parallelEngine) snapTrace(i, idx int, upTo int64) int {
	for idx < len(e.trBound) && e.trBound[idx] <= upTo {
		st := &e.g.smStats[i]
		e.trSnap[i][idx] = trace.Gauges{
			Instructions:          st.Instructions,
			L1Accesses:            st.L1Accesses,
			L1Hits:                st.L1Hits,
			OutstandingPrefetches: st.PrefetchIssued - st.PrefetchFills,
			MSHROccupancy:         int64(e.g.sms[i].L1().MSHRCount()),
		}
		idx++
	}
	return idx
}

// epochEnd returns the last cycle of the longest valid epoch starting at
// cycle+1 (see the package comment for the bounds).
func (e *parallelEngine) epochEnd(cycle, maxCycles int64) int64 {
	g := e.g
	end := cycle + e.minLat
	// Fills may pop inside the window; only epoch-start pending retries force
	// the stricter stop-before-first-fill bound (package comment).
	if g.memSys.PendingRetries() {
		if t := g.memSys.NextFillCycle(); t >= 0 && t-1 < end {
			end = t - 1
		}
	}
	if maxCycles-1 < end {
		end = maxCycles - 1
	}
	return end
}

// appendBounds appends every multiple of iv inside [from, to] (the interval
// boundaries the serial loop would have sampled at).
func appendBounds(dst []int64, from, to, iv int64) []int64 {
	if iv <= 0 {
		return dst
	}
	for m := from + (iv-from%iv)%iv; m <= to; m += iv {
		dst = append(dst, m)
	}
	return dst
}

func resizeSnap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (e *parallelEngine) prepareEpoch(from, to int64) {
	lanes := e.g.lanes
	for i := range lanes {
		lanes[i].doneAt = -1
		lanes[i].lastDeliv = -1
		lanes[i].sched = lanes[i].sched[:0]
	}
	// Build each SM's response schedule from the frozen event ring: every
	// response an in-window event pop will produce, in (pop cycle, event seq,
	// waiter index) order — per-SM lists stay sorted because the lookahead
	// emits in that global order.
	for _, s := range e.g.memSys.PeekWindowResponses(to) {
		ln := &lanes[s.Resp.Req.SM]
		ln.sched = append(ln.sched, s)
	}
	var trIv int64
	if e.traced {
		trIv = e.g.tr.Interval()
	}
	e.trBound = appendBounds(e.trBound[:0], from, to, trIv)
	for i := range e.trSnap {
		e.trSnap[i] = resizeSnap(e.trSnap[i], len(e.trBound))
	}
	e.pendTr = e.pendTr[:0]
}

// runEpoch fans [from, to] out to the workers, then drains the barrier:
// replaying buffered injections (and running the memory system's own
// cycles) in serial order, merging trace streams, and deciding whether the
// run terminated inside the epoch. It returns the cycle the main loop
// should stand at and whether the run is complete.
func (e *parallelEngine) runEpoch(from, to int64) (int64, bool) {
	e.prepareEpoch(from, to)
	g := e.g
	spin := e.spinBudget()
	e.fanOut(epochWindow{from: from, to: to, spin: spin})
	e.lap(&e.prof.PrepareNS)
	e.advanceBlock(0, from, to)
	e.lap(&e.prof.AdvanceNS)
	e.awaitWorkers(spin)
	e.lap(&e.prof.BarrierWaitNS)
	lastAct := e.drainEpoch(from, to)
	allDone := true
	maxDone := from
	for i := range g.lanes {
		d := g.lanes[i].doneAt
		if d < 0 {
			allDone = false
			break
		}
		if d > maxDone {
			maxDone = d
		}
	}
	terminated := allDone && g.memSys.Drained() && !g.net.Pending()
	end := to
	if terminated {
		// The serial loop breaks at the first cycle where every SM has been
		// observed Done AND the memory side is quiet; within this epoch that
		// is the latest of the last SM's done observation, the memory
		// system's last activity, and the last NoC delivery (the loop cannot
		// break while responses remain queued).
		end = maxDone
		if lastAct > end {
			end = lastAct
		}
		for i := range g.lanes {
			if d := g.lanes[i].lastDeliv; d > end {
				end = d
			}
		}
	}
	e.prof.Epochs++
	e.prof.EpochCycles += end - from + 1
	e.emitSamples(end)
	e.lap(&e.prof.DrainNS)
	return end, terminated
}

// lap charges the wall time since the previous phase boundary to *phase.
// The four phases tile the coordinating goroutine's time: whatever runs
// between one epoch's drain and the next fan-out (window planning, serial
// steps, idle skips) counts as preparation.
func (e *parallelEngine) lap(phase *int64) {
	now := time.Now()
	*phase += int64(now.Sub(e.stamp))
	e.stamp = now
}

// spinBudget is how long either side of the barrier polls before parking:
// a few times the mean serial section so far — the wait a worker normally
// sees between epochs, of which the first epoch knows nothing, so it parks.
func (e *parallelEngine) spinBudget() time.Duration {
	if e.prof.Epochs == 0 {
		return 0
	}
	serial := time.Duration((e.prof.PrepareNS + e.prof.DrainNS) / e.prof.Epochs)
	return min(spinFactor*serial, maxSpin)
}

// drainEpoch is the epoch's barrier: it replays the buffered injections in
// canonical order, interleaved with the memory system's own due cycles, and
// returns the last cycle the memory system did work at (-1 if none). It
// enqueues nothing: every response an in-window Tick produces was already
// enqueued worker-side (scheduled at epoch start or mirrored by its issuing
// worker), and events the replay creates pop after the window, so these
// Ticks only evolve stats, retries, MSHR/DRAM-slot state and event
// sequencing, bit-identically to serial. Untraced, the replay jumps between
// cycles with work; traced, it walks every cycle, splicing each into the
// shared stream and gathering the interval sample due at it.
func (e *parallelEngine) drainEpoch(from, to int64) int64 {
	g := e.g
	e.beginMerge()
	lastAct := int64(-1)
	bi := 0
	for c := from - 1; ; {
		next := c + 1
		if !e.traced {
			// The memory system's next due work or the earliest
			// still-buffered request.
			next = g.memSys.NextEventCycle(c)
			for i := range g.lanes {
				p := &g.lanes[i].port
				if e.ri[i] < len(p.reqs) {
					if rc := p.reqs[e.ri[i]].cycle; next < 0 || rc < next {
						next = rc
					}
				}
			}
		}
		if next < 0 || next > to {
			break
		}
		c = next
		if e.traced {
			g.tr.Advance(c)
		}
		var resp []dram.Response
		if t := g.memSys.NextEventCycle(c - 1); t >= 0 && t <= c {
			lastAct = c
			resp = g.memSys.Tick(c)
		}
		if !e.traced {
			for i := range g.lanes {
				p := &g.lanes[i].port
				for e.ri[i] < len(p.reqs) && p.reqs[e.ri[i]].cycle == c {
					g.memSys.Request(p.reqs[e.ri[i]].req, c)
					e.ri[i]++
				}
			}
			continue
		}
		e.splice(c, resp)
		if bi < len(e.trBound) && e.trBound[bi] == c {
			var gg trace.Gauges
			for i := range e.trSnap {
				s := &e.trSnap[i][bi]
				gg.Instructions += s.Instructions
				gg.L1Accesses += s.L1Accesses
				gg.L1Hits += s.L1Hits
				gg.OutstandingPrefetches += s.OutstandingPrefetches
				gg.MSHROccupancy += s.MSHROccupancy
			}
			gg.DRAMQueueDepth = g.memSys.QueueDepth()
			e.pendTr = append(e.pendTr, pendingSample{cycle: c, gg: gg})
			bi++
		}
	}
	e.endMerge()
	return lastAct
}

// beginMerge rewinds the barrier's per-SM cursors and, when tracing, flushes
// every local tracer so its sink holds the SM's whole unmerged stream.
func (e *parallelEngine) beginMerge() {
	for i := range e.ri {
		e.ri[i], e.hi[i] = 0, 0
		if e.traced {
			e.g.parTr[i].Flush()
		}
	}
}

// endMerge empties what the barrier has merged: every request buffer and,
// when tracing, every local stream, whose request positions restart at zero.
func (e *parallelEngine) endMerge() {
	g := e.g
	for i := range g.lanes {
		p := &g.lanes[i].port
		p.reqs = p.reqs[:0]
		if e.traced {
			g.parSink[i].Events = g.parSink[i].Events[:0]
			p.base = p.tr.Emitted()
		}
	}
}

// splice merges traced cycle c into the shared stream once memSys.Tick(c)
// has emitted the shared side's events and returned resp (nil when nothing
// was due). The serial loop next emits one KindNoCInject per response, in
// resp's order: each heads its SM's unmerged local stream, where it was
// emitted at the top of cycle c. Then, SM by SM, the SM's other events up to
// c are moved across and its requests replayed, each request after exactly
// the events the SM had emitted when it issued it.
func (e *parallelEngine) splice(c int64, resp []dram.Response) {
	g := e.g
	for _, r := range resp {
		i := r.Req.SM
		g.tr.EmitStamped(g.parSink[i].Events[e.hi[i]])
		e.hi[i]++
	}
	for i := range g.lanes {
		evs, reqs := g.parSink[i].Events, g.lanes[i].port.reqs
		hi, ri := e.hi[i], e.ri[i]
		for {
			eOK := hi < len(evs) && evs[hi].Cycle <= c
			rOK := ri < len(reqs) && reqs[ri].cycle <= c
			if rOK && (!eOK || reqs[ri].pos <= int64(hi)) {
				g.memSys.Request(reqs[ri].req, reqs[ri].cycle)
				ri++
			} else if eOK {
				g.tr.EmitStamped(evs[hi])
				hi++
			} else {
				break
			}
		}
		e.hi[i], e.ri[i] = hi, ri
	}
}

// emitSamples publishes the epoch's interval samples up to and including
// cycle end (the termination cycle, or the epoch end).
func (e *parallelEngine) emitSamples(end int64) {
	for _, ps := range e.pendTr {
		if ps.cycle > end {
			break
		}
		e.g.tr.RecordSample(ps.cycle, ps.gg)
	}
}

// drainStep is the barrier of one serial step at cycle c, whose
// memSys.Tick returned resp, and of a gap skipped from cycle c on (resp
// nil). It replays the step's buffered injections and, when tracing, merges
// the cycle into the shared stream. A skip's stall events are all stamped
// with the gap's first cycle, so merging them SM by SM at that one cycle is
// their serial (cycle, SM) order.
func (e *parallelEngine) drainStep(c int64, resp []dram.Response) {
	if e.traced {
		e.beginMerge()
		e.splice(c, resp)
	} else {
		for i := range e.g.lanes {
			for _, br := range e.g.lanes[i].port.reqs {
				e.g.memSys.Request(br.req, br.cycle)
			}
		}
	}
	e.endMerge()
}

// runParallel is RunContext's parallel twin: chained worker-fanned epochs
// with serial steps (the exact serial loop body, with injections buffered
// and replayed in order) only where a window would be shorter than
// minEpochCycles. Observable behaviour — cycle count, stats, traces,
// samples, cancellation — is bit-identical to the serial loop.
func (g *GPU) runParallel(ctx context.Context, kernName string) (Result, error) {
	e := newParallelEngine(g)
	g.eng = e
	defer func() {
		e.stop()
		g.eng = nil
	}()
	maxCycles := g.cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 62
	}
	done := ctx.Done()
	traced := g.tr != nil
	var cycle int64
	var nextCtxCheck int64
	hitMax := false
	for {
		if cycle >= maxCycles {
			hitMax = true
			break
		}
		if done != nil && cycle >= nextCtxCheck {
			select {
			case <-done:
				return Result{}, fmt.Errorf("gpu: %s cancelled at cycle %d: %w", kernName, cycle, ctx.Err())
			default:
			}
			nextCtxCheck = cycle + ctxCheckInterval
		}
		// Epoch-first: fan out the widest provable window starting at this
		// cycle, falling back to one serial step only when the window is too
		// short to pay for its barrier. Chaining epochs directly (rather
		// than interleaving a mandatory serial step) is what lifts epoch
		// coverage to ~minLat/(minLat+1) on epoch-friendly phases.
		if to := e.epochEnd(cycle-1, maxCycles); to-cycle+1 >= minEpochCycles {
			final, terminated := e.runEpoch(cycle, to)
			cycle = final
			if terminated {
				break
			}
		} else {
			if traced {
				g.tr.Advance(cycle)
				for _, lt := range g.parTr {
					lt.Advance(cycle)
				}
			}
			// enqueued stays valid until the next Tick: in parallel mode
			// nothing else touches the memory system before drainStep.
			enqueued := g.memSys.Tick(cycle)
			for _, r := range enqueued {
				g.net.Enqueue(r)
			}
			allDone := true
			for i, sm := range g.sms {
				resp := g.net.Deliver(i, cycle)
				for _, r := range resp {
					sm.HandleFill(r, cycle)
				}
				if sm.Done() {
					continue
				}
				allDone = false
				if !g.noSkip && len(resp) == 0 && g.lanes[i].wake > cycle {
					sm.SkipIdle(cycle, cycle)
					continue
				}
				g.tickSM(i, cycle)
			}
			e.drainStep(cycle, enqueued)
			if traced && g.tr.SampleDue(cycle) {
				g.sampleTrace(cycle)
			}
			if allDone && g.memSys.Drained() && !g.net.Pending() {
				break
			}
		}
		if !g.noSkip {
			cycle = g.skipTo(cycle, maxCycles)
		}
		cycle++
	}
	return g.finish(kernName, cycle, hitMax), nil
}
