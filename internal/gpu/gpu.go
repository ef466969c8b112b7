// Package gpu assembles the full simulated GPU: the configured number of
// SMs (internal/core) over a shared interconnect (internal/noc) and a
// partitioned L2+DRAM memory system (internal/dram), driven by a single
// global clock, as in Figure 1 of the APRES paper.
package gpu

import (
	"context"
	"fmt"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/core"
	"apres/internal/dram"
	"apres/internal/kernel"
	"apres/internal/noc"
	"apres/internal/stats"
	"apres/internal/trace"
)

// TimelinePoint is one sample of aggregate progress (for plotting IPC over
// time and spotting phase behaviour).
type TimelinePoint struct {
	// Cycle is the sample time.
	Cycle int64
	// Instructions is the cumulative instruction count across all SMs.
	Instructions int64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Config is the configuration the run used.
	Config config.Config
	// Kernel names the workload.
	Kernel string
	// Cycles is the total execution time in cycles.
	Cycles int64
	// Total aggregates all per-SM counters plus the shared memory
	// system counters.
	Total stats.Stats
	// PerSM holds each SM's counters.
	PerSM []stats.Stats
	// LoadStats holds per-PC characterisation from SM 0 when the run
	// collected them (Table I).
	LoadStats map[arch.PC]*core.LoadStat
	// HitMaxCycles reports the run stopped at the MaxCycles bound
	// instead of kernel completion.
	HitMaxCycles bool
	// Timeline holds periodic progress samples when the GPU was built
	// with WithTimeline.
	Timeline []TimelinePoint
	// EngineStats reports how the run executed (parallel epoch counts and
	// coverage; zero for serial runs). It is execution metadata, excluded
	// from the serial/parallel equivalence the engine guarantees for every
	// other field.
	EngineStats stats.EngineStats
}

// IPC returns aggregate instructions per cycle across the GPU.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Total.Instructions) / float64(r.Cycles)
}

// GPU is one simulated device.
type GPU struct {
	cfg     config.Config
	sms     []*core.SM
	smStats []stats.Stats
	memSys  *dram.MemSystem
	net     *noc.Network
	shared  stats.Stats

	collectLoadStats bool
	timelineInterval int64
	timeline         []TimelinePoint
	noSkip           bool
	tr               *trace.Tracer

	// lanes holds each SM's cached wakeup bound and, in parallel runs, its
	// deferred-injection port, response schedule and epoch observations
	// (see smLaneState).
	lanes []smLane

	// Parallel-engine state (nil/zero in serial runs): smJobs is the worker
	// count from WithParallelSMs, parTr/parSink the per-SM local tracers
	// feeding the barrier merge, and eng the engine while RunContext is
	// inside runParallel.
	smJobs  int
	parTr   []*trace.Tracer
	parSink []trace.CollectSink
	eng     *parallelEngine
}

// Option customises a GPU before it runs.
type Option func(*GPU)

// WithLoadStats enables per-PC load characterisation on SM 0 (Table I).
func WithLoadStats() Option {
	return func(g *GPU) { g.collectLoadStats = true }
}

// WithTimeline samples cumulative instruction counts every interval cycles
// into Result.Timeline.
func WithTimeline(interval int64) Option {
	return func(g *GPU) {
		if interval > 0 {
			g.timelineInterval = interval
		}
	}
}

// WithTrace attaches a Tracer: every component emits its typed events into
// it and the run loop records interval samples at the tracer's window
// boundaries (including boundaries inside cycle-skipped gaps). Tracing
// never changes simulated results — emitters only read component state —
// and a nil tracer is ignored, so callers can pass their flag value
// directly. The caller owns the tracer and must Close it after the run.
func WithTrace(tr *trace.Tracer) Option {
	return func(g *GPU) { g.tr = tr }
}

// WithParallelSMs shards the per-SM simulation loop across n worker
// goroutines with deterministic epoch/barrier synchronisation at the
// NoC-injection boundary: workers advance disjoint SM partitions through
// provably interaction-free windows, buffering memory-system injections,
// and a barrier replays them in canonical (cycle, SM, issue-order) order so
// the shared NoC/L2/DRAM side observes exactly the serial event sequence.
// Results — cycles, every statistic, trace streams, interval samples — are
// bit-identical to the serial engine for every n (parallel_equiv_test.go
// enforces it). n <= 1 keeps the default serial loop; n is clamped to the
// SM count.
func WithParallelSMs(n int) Option {
	return func(g *GPU) { g.smJobs = n }
}

// WithoutCycleSkipping forces the run loop to tick every cycle instead of
// event-driven fast-forwarding over provably idle ones. Results are
// bit-identical either way (the equivalence tests enforce it); this exists
// for those tests, for benchmarking the skip win, and as an escape hatch
// when debugging the timing model cycle by cycle.
func WithoutCycleSkipping() Option {
	return func(g *GPU) { g.noSkip = true }
}

// New builds a GPU running kern on every SM.
func New(cfg config.Config, kern kernel.Kernel, opts ...Option) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := kern.Program.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: kernel %q: %w", kern.Name, err)
	}
	g := &GPU{cfg: cfg}
	for _, o := range opts {
		o(g)
	}
	if g.smJobs > cfg.NumSMs {
		g.smJobs = cfg.NumSMs
	}
	parallel := g.smJobs > 1
	g.memSys = dram.New(cfg, &g.shared)
	g.net = noc.New(cfg.NumSMs, cfg.NoCBytesPerCycle, &g.shared)
	g.smStats = make([]stats.Stats, cfg.NumSMs)
	g.lanes = make([]smLane, cfg.NumSMs)
	g.sms = make([]*core.SM, cfg.NumSMs)
	for i := 0; i < cfg.NumSMs; i++ {
		var port core.MemPort = g.memSys
		if parallel {
			port = &g.lanes[i].port
		}
		sm, err := core.NewSM(i, cfg, kern, port, &g.smStats[i])
		if err != nil {
			return nil, err
		}
		if i == 0 && g.collectLoadStats {
			sm.CollectLoadStats = true
		}
		g.sms[i] = sm
	}
	if g.tr != nil {
		g.memSys.SetTracer(g.tr)
		g.net.SetTracer(g.tr)
		if parallel {
			// Each SM captures its own events into a local tracer; the
			// barrier merges them into the shared stream in serial order.
			g.parSink = make([]trace.CollectSink, cfg.NumSMs)
			g.parTr = make([]*trace.Tracer, cfg.NumSMs)
			for i := range g.sms {
				g.parTr[i] = trace.NewSized(&g.parSink[i], 0, parTraceBlockEvents)
				g.sms[i].SetTracer(g.parTr[i])
				g.lanes[i].port.tr = g.parTr[i]
			}
			g.net.SetSMTracers(g.parTr)
		} else {
			for _, sm := range g.sms {
				sm.SetTracer(g.tr)
			}
		}
	}
	return g, nil
}

// Run executes the simulation to kernel completion (or MaxCycles) and
// returns the result.
func (g *GPU) Run(kernName string) Result {
	res, _ := g.RunContext(context.Background(), kernName)
	return res
}

// ctxCheckInterval is how often (in cycles) RunContext polls its context.
// Checking every cycle would dominate the simulation's own work; every 4k
// cycles bounds cancellation latency to microseconds of wall time.
const ctxCheckInterval = 4096

// RunContext is Run with cooperative cancellation: the simulation loop
// polls ctx every few thousand cycles and abandons the run — returning
// ctx's error and a zero Result — when it is cancelled. This is how the
// daemon enforces per-request timeouts on long simulations.
//
// The loop is event-driven: after each executed cycle it asks every
// component for its next interesting cycle and, when that lies more than
// one cycle ahead, jumps the clock straight there (see skipTo for why the
// jump is observationally invisible). Busy phases — any SM with a ready
// warp, a queued prefetch or an LSU operation it can act on — report "next
// cycle" and run cycle-by-cycle exactly as before.
func (g *GPU) RunContext(ctx context.Context, kernName string) (Result, error) {
	if g.smJobs > 1 {
		return g.runParallel(ctx, kernName)
	}
	maxCycles := g.cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 62
	}
	done := ctx.Done()
	var cycle int64
	// nextCtxCheck makes the poll skip-aware: fast-forwarding jumps over
	// most multiples of ctxCheckInterval, so the modulo test of the old
	// cycle-by-cycle loop could starve cancellation; a threshold fires on
	// the first executed cycle at or past each checkpoint instead.
	var nextCtxCheck int64
	hitMax := false
	for ; ; cycle++ {
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
		if g.tr != nil {
			g.tr.Advance(cycle)
		}
		for _, r := range g.memSys.Tick(cycle) {
			g.net.Enqueue(r)
		}
		allDone, anyBusy := true, false
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
				// The SM's cached wakeup bound proves this cycle is an
				// issue stall (and an L1 stall, if its LSU is blocked) and
				// nothing else; account it without the full Tick (see
				// skipTo for the invisibility argument).
				sm.SkipIdle(cycle, cycle)
				continue
			}
			if g.tickSM(i, cycle) {
				anyBusy = true
			}
		}
		if g.timelineInterval > 0 && cycle%g.timelineInterval == 0 {
			g.sampleTimeline(cycle)
		}
		if g.tr != nil && g.tr.SampleDue(cycle) {
			g.sampleTrace(cycle)
		}
		if allDone && g.memSys.Drained() && !g.net.Pending() {
			break
		}
		if !g.noSkip && !anyBusy {
			// A busy SM pins the next cycle; skipTo would find that out from
			// its wake bound and return at once.
			cycle = g.skipTo(cycle, maxCycles)
		}
	}
	return g.finish(kernName, cycle, hitMax), nil
}

// tickSM ticks SM i, refreshes its cached wakeup bound and passes on Tick's
// busy report. A busy tick (see core.SM.Tick) means "tick again next cycle"
// with no further question; only after an idle tick is the bound worth
// computing, so a run at full occupancy pays next to nothing for the ability
// to skip.
func (g *GPU) tickSM(i int, cycle int64) (busy bool) {
	busy = g.sms[i].Tick(cycle)
	if !g.noSkip {
		wake := cycle + 1
		if !busy {
			wake = g.sms[i].NextWakeup(cycle)
		}
		g.lanes[i].wake = wake
	}
	return busy
}

// finish assembles the Result once the run loop (serial or parallel) has
// stopped at cycle, emitting the tail interval sample first.
func (g *GPU) finish(kernName string, cycle int64, hitMax bool) Result {
	if g.tr != nil && g.tr.Interval() > 0 {
		// Tail sample so the series always covers the whole run, even when
		// the final cycle is not a window boundary.
		if s := g.tr.Samples(); len(s) == 0 || s[len(s)-1].Cycle != cycle {
			g.sampleTrace(cycle)
		}
	}
	res := Result{
		Config:       g.cfg,
		Kernel:       kernName,
		Cycles:       cycle,
		PerSM:        make([]stats.Stats, len(g.sms)),
		HitMaxCycles: hitMax,
	}
	for i, sm := range g.sms {
		sm.FinalizePrefetchStats()
		res.PerSM[i] = g.smStats[i]
		res.Total.Add(&g.smStats[i])
	}
	// The NoC defers BytesToSM accounting into per-SM accumulators so
	// parallel workers can deliver concurrently; fold them in before the
	// shared block is summed.
	g.net.FlushStats()
	res.Total.Add(&g.shared)
	res.Total.Cycles = cycle
	if g.collectLoadStats {
		res.LoadStats = g.sms[0].LoadStats()
	}
	res.Timeline = g.timeline
	if g.eng != nil {
		res.EngineStats = g.eng.prof
	}
	return res
}

// skipTo implements event-driven fast-forwarding. Called after cycle's
// work is complete, it computes the earliest future cycle at which any
// component can act — an SM wakeup, the memory system's event ring, or a
// NoC delivery (including credit refill) — and, if that leaves a gap,
// accounts the gap and returns next-1 so the loop's increment lands
// exactly on the next interesting cycle.
//
// The jump is observationally invisible because a skipped cycle is
// provably inert for every component: the memory system has no due event
// and no retryable stall, no response can reach an SM, and every live SM
// would Tick into a no-op stall (no due completion, no prefetch queued, an
// LSU queue that is empty or blocked until a fill arrives, no issuable
// warp). The only architectural traces such a cycle leaves in a
// cycle-by-cycle run are one issue-stall count, one L1 stall where the LSU
// is blocked, and the cycle stamp per live SM — SkipIdle writes all three —
// plus any timeline samples due in the gap, emitted here with the
// (unchanged) instruction count.
func (g *GPU) skipTo(cycle, maxCycles int64) int64 {
	next := maxCycles
	anyLive := false
	for i, sm := range g.sms {
		if sm.Done() {
			continue
		}
		anyLive = true
		// The cached bound is fresh for SMs that Ticked this cycle and
		// still valid (> cycle) for ones that skipped it.
		w := g.lanes[i].wake
		if w <= cycle+1 {
			return cycle // an SM is busy: no skip
		}
		if w < next {
			next = w
		}
	}
	if !anyLive && g.memSys.Drained() && !g.net.Pending() {
		// The run just finished: the last SM went Done during this very
		// cycle's Tick, so the loop's break predicate (computed before the
		// Tick) has not observed it yet. The cycle-by-cycle loop runs one
		// more iteration and breaks there; skipping would overshoot the
		// final cycle count.
		return cycle
	}
	if t := g.memSys.NextEventCycle(cycle); t >= 0 && t < next {
		next = t
	}
	if t := g.net.NextDeliveryCycle(cycle); t >= 0 && t < next {
		next = t
	}
	if next <= cycle+1 {
		return cycle
	}
	from, to := cycle+1, next-1
	if g.tr != nil {
		// Stall-transition events from SkipIdle must carry the timestamp the
		// cycle-by-cycle loop would have used: the gap's first cycle. In
		// parallel mode the SMs emit into their local tracers, so those
		// clocks advance too.
		g.tr.Advance(from)
		for _, lt := range g.parTr {
			lt.Advance(from)
		}
	}
	for _, sm := range g.sms {
		if !sm.Done() {
			sm.SkipIdle(from, to)
		}
	}
	if g.eng != nil {
		g.eng.prof.SkippedCycles += to - from + 1
		if g.tr != nil {
			// Merge the freshly buffered stall events now, before any later
			// cycle emits to the shared stream ahead of them.
			g.eng.drainStep(from, nil)
		}
	}
	if iv := g.timelineInterval; iv > 0 {
		for m := from + (iv-from%iv)%iv; m <= to; m += iv {
			g.sampleTimeline(m)
		}
	}
	if g.tr != nil {
		// Window boundaries inside the gap get samples with the (frozen)
		// gauges: every component is provably inert across the skipped
		// cycles, so these match what the cycle-by-cycle loop records.
		if iv := g.tr.Interval(); iv > 0 {
			for m := from + (iv-from%iv)%iv; m <= to; m += iv {
				g.sampleTrace(m)
			}
		}
	}
	return to
}

// sampleTrace gathers the interval gauges and records one time-series
// point. Everything here is a read: sampling cannot perturb the run.
func (g *GPU) sampleTrace(cycle int64) {
	var gg trace.Gauges
	for i := range g.sms {
		st := &g.smStats[i]
		gg.Instructions += st.Instructions
		gg.L1Accesses += st.L1Accesses
		gg.L1Hits += st.L1Hits
		gg.OutstandingPrefetches += st.PrefetchIssued - st.PrefetchFills
		gg.MSHROccupancy += int64(g.sms[i].L1().MSHRCount())
	}
	gg.DRAMQueueDepth = g.memSys.QueueDepth()
	g.tr.RecordSample(cycle, gg)
}

// sampleTimeline appends one progress sample at the given cycle.
func (g *GPU) sampleTimeline(cycle int64) {
	var insts int64
	for i := range g.smStats {
		insts += g.smStats[i].Instructions
	}
	g.timeline = append(g.timeline, TimelinePoint{Cycle: cycle, Instructions: insts})
}

// Simulate is the one-call convenience API: build a GPU for cfg and kern,
// run it, and return the result.
func Simulate(cfg config.Config, kern kernel.Kernel, opts ...Option) (Result, error) {
	return SimulateContext(context.Background(), cfg, kern, opts...)
}

// SimulateContext is Simulate with cooperative cancellation (see
// RunContext).
func SimulateContext(ctx context.Context, cfg config.Config, kern kernel.Kernel, opts ...Option) (Result, error) {
	g, err := New(cfg, kern, opts...)
	if err != nil {
		return Result{}, err
	}
	return g.RunContext(ctx, kern.Name)
}
