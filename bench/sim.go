package main

import (
	"fmt"
	"runtime"
	"time"

	"apres/internal/gpu"
	"apres/internal/trace"
)

// simLeg is one timed pass over the cells with one engine mode.
type simLeg struct {
	results []gpu.Result
	start   []time.Time     // per cell
	wall    []time.Duration // per cell
}

func (l simLeg) total() time.Duration {
	var d time.Duration
	for _, w := range l.wall {
		d += w
	}
	return d
}

// simulateCells runs every cell once, cold, in the given order.
func simulateCells(e *env, cells []cell, order []int, opts ...gpu.Option) (simLeg, error) {
	leg := simLeg{results: make([]gpu.Result, len(cells)), start: make([]time.Time, len(cells)), wall: make([]time.Duration, len(cells))}
	for _, i := range order {
		leg.start[i] = time.Now()
		res, err := gpu.Simulate(cells[i].cfg, cells[i].kern, opts...)
		leg.wall[i] = time.Since(leg.start[i])
		e.op(err == nil)
		if err != nil {
			return leg, fmt.Errorf("%s: %w", cells[i], err)
		}
		leg.results[i] = res
	}
	return leg, nil
}

func inOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func engineOpts(smJobs int) []gpu.Option {
	if smJobs > 1 {
		return []gpu.Option{gpu.WithParallelSMs(smJobs)}
	}
	return nil
}

// minPasses is how many passes sim_* runs even when the time is up: the
// output check compares passes, and the metrics take a median over them.
const minPasses = 2

// runSim is sim_serial (smJobs 1) and sim_smjobs2 (smJobs 2): a closed loop
// of one caller making cold gpu.Simulate calls, cell order shuffled per pass.
func runSim(e *env, smJobs int) error {
	e.under = smJobs > nproc()
	opts := engineOpts(smJobs)
	var cells []cell
	err := e.timeSetup(func() error {
		var err error
		if cells, err = buildCells(simApps, simConfigs, e.size.scale, e.size.sms); err != nil {
			return err
		}
		// Warm-up at a small scale: the first simulations of a process pay
		// for growing the heap, which is not what the passes measure.
		warm, err := buildCells(simApps, simConfigs, warmScale, e.size.sms)
		if err != nil {
			return err
		}
		_, err = simulateCells(e, warm, inOrder(len(warm)), opts...)
		return err
	}, nil)
	if err != nil {
		return err
	}
	if e.traced() {
		if smJobs > 1 {
			return traceSimParallel(e, cells, smJobs)
		}
		return traceSimSerial(e, cells)
	}

	var legs []simLeg
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass >= minPasses {
			// Stop when another pass would not fit in the time that is left.
			perPass := time.Since(start) / time.Duration(pass)
			if time.Since(start)+perPass > e.budget {
				break
			}
		}
		leg, err := simulateCells(e, cells, e.rng.Perm(len(cells)), opts...)
		if err != nil {
			return err
		}
		legs = append(legs, leg)
	}

	first := legs[0].results
	for p, leg := range legs[1:] {
		for i := range cells {
			e.checkf(sameOutcome(first[i], leg.results[i]), "%s: pass %d differs from pass 0", cells[i], p+1)
		}
	}
	if smJobs > 1 {
		ref, err := simulateCells(e, cells, inOrder(len(cells)))
		if err != nil {
			return err
		}
		for i := range cells {
			e.checkf(sameOutcome(first[i], ref.results[i]), "%s: -smjobs %d differs from the serial engine", cells[i], smJobs)
		}
	}
	e.note("stats_digest", statsDigest(cells, first))

	// Per cell, the median wall time over the passes; the metrics sum and
	// rank those medians, so one slow pass of one cell does not move them.
	cellMS := make([]float64, len(cells))
	var insts, cycles int64
	var sumMS float64
	for i := range cells {
		walls := make([]time.Duration, len(legs))
		for p, leg := range legs {
			walls[p] = leg.wall[i]
		}
		cellMS[i] = median(durationsMS(walls))
		sumMS += cellMS[i]
		insts += first[i].Total.Instructions
		cycles += first[i].Cycles
	}
	n := len(legs)
	e.set("cold_s", sumMS/1e3, n)
	e.set("sim_mwinst_per_s", float64(insts)/1e6/(sumMS/1e3), n)
	e.set("sim_mcycles_per_s", float64(cycles)/1e6/(sumMS/1e3), n)
	e.set("repeat_p50_ms", median(cellMS), n*len(cells))
	return nil
}

// traceSimSerial is the traced run of sim_serial: the instrumented driver
// attributes each cell's host time to core, dram and noc; engine-mode legs
// (noskip, skip) and the isolated component loops run in the same process.
func traceSimSerial(e *env, cells []cell) error {
	lapNS := lapCostNS()
	order := inOrder(len(cells))

	// Reference legs: the per-cycle loop the driver re-creates, and the
	// default event-skipping engine that sim_serial measures.
	noskip, err := simulateCells(e, cells, order, gpu.WithoutCycleSkipping())
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	skip, err := simulateCells(e, cells, order)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)

	var sum layerTimes
	for i, c := range cells {
		start := time.Now()
		res, lt, err := driveCell(c, 16, lapNS)
		e.op(err == nil)
		if err != nil {
			return fmt.Errorf("driver %s: %w", c, err)
		}
		e.checkf(sameOutcome(res, noskip.results[i]), "%s: instrumented driver differs from gpu.Simulate(WithoutCycleSkipping)", c)
		e.checkf(sameOutcome(res, skip.results[i]), "%s: cycle skipping changes the result", c)
		lt.scaleTo(noskip.wall[i])
		sum.add(lt)
		id := e.spans.record("gpu.loop", 0, int64(i+1), c.String(), start, noskip.wall[i])
		e.spans.aggregates(id, c.String(), start, []span{
			{Name: "dram.tick", DurNS: int64(lt.dramTickNS), Calls: lt.cycles},
			{Name: "noc.deliver", DurNS: int64(lt.nocNS), Calls: lt.delivers},
			{Name: "core.fill", DurNS: int64(lt.coreFillNS), Calls: lt.fills},
			{Name: "core.tick", DurNS: int64(lt.coreTickNS), Calls: lt.ticks},
			{Name: "dram.request", DurNS: int64(lt.dramReqNS), Calls: lt.requests},
		})
	}
	e.note("stats_digest", statsDigest(cells, skip.results))

	n := len(cells)
	total := float64(noskip.total())
	coreNS := sum.coreTickNS + sum.coreFillNS
	dramNS := sum.dramTickNS + sum.dramReqNS
	e.set("core.tick_s", sum.coreTickNS/1e9, n)
	e.set("core.tick_ns", sum.coreTickNS/float64(max(sum.ticks, 1)), int(sum.ticks))
	e.set("core.ticks", float64(sum.ticks), n)
	e.set("core.fill_s", sum.coreFillNS/1e9, n)
	e.set("core.share", coreNS/total, n)
	e.set("dram.tick_s", sum.dramTickNS/1e9, n)
	e.set("dram.share", dramNS/total, n)
	e.set("dram.requests", float64(sum.requests), n)
	e.set("noc.deliver_s", sum.nocNS/1e9, n)
	e.set("noc.share", sum.nocNS/total, n)
	e.set("noc.responses", float64(sum.responses), n)
	e.set("gpu.loop_self_s", sum.loopNS/1e9, n)
	e.set("gpu.host_ns_per_cycle", float64(noskip.total())/float64(sum.cycles), n)
	e.set("bench.trace_overhead_ratio", float64(sum.wall)/total, n)

	var ratios []float64
	var baseInst, apresInst int64
	var baseWall, apresWall time.Duration
	for i, c := range cells {
		ratios = append(ratios, float64(skip.wall[i])/float64(noskip.wall[i]))
		if c.cfgName == "base" {
			baseInst += skip.results[i].Total.Instructions
			baseWall += skip.wall[i]
		} else {
			apresInst += skip.results[i].Total.Instructions
			apresWall += skip.wall[i]
		}
	}
	e.set("gpu.slowest_cell_ms", percentile(durationsMS(skip.wall), 1), n)
	e.set("gpu.skip_over_noskip_p50", median(ratios), n)
	e.set("gpu.skip_over_noskip_max", percentile(ratios, 1), n)
	e.set("gpu.base_mwinst_per_s", float64(baseInst)/1e6/baseWall.Seconds(), n/2)
	e.set("gpu.apres_mwinst_per_s", float64(apresInst)/1e6/apresWall.Seconds(), n/2)
	e.set("gpu.allocs_per_sim", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	e.set("gpu.kb_per_sim", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(n), n)

	var newMS []float64
	for _, c := range cells {
		t0 := time.Now()
		_, err := gpu.New(c.cfg, c.kern)
		newMS = append(newMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	e.set("gpu.new_ms", median(newMS), n)

	if err := traceSimTracer(e, cells); err != nil {
		return err
	}
	measureComponents(e)
	return nil
}

// traceSimTracer measures what the simulator's own cycle-level tracer
// (gpu.WithTrace) costs on the compute-bound SP cell: observing must not
// change the path, and should not cost much either.
func traceSimTracer(e *env, cells []cell) error {
	var sp cell
	for _, c := range cells {
		if c.app == "SP" && c.cfgName == "apres" {
			sp = c
		}
	}
	t0 := time.Now()
	plain, err := gpu.Simulate(sp.cfg, sp.kern)
	e.op(err == nil)
	if err != nil {
		return err
	}
	untraced := time.Since(t0)

	var sink trace.CollectSink
	tr := trace.New(&sink, 0)
	t0 = time.Now()
	res, err := gpu.Simulate(sp.cfg, sp.kern, gpu.WithTrace(tr))
	traced := time.Since(t0)
	e.op(err == nil)
	if err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	e.checkf(sameOutcome(plain, res), "%s: gpu.WithTrace changes the result", sp)
	e.set("trace.traced_over_untraced", float64(traced)/float64(untraced), 1)
	if n := tr.Emitted(); n > 0 {
		e.set("trace.emit_ns", max(0, float64(traced-untraced))/float64(n), int(n))
	}
	return nil
}

// traceSimParallel is the traced run of sim_smjobs2: one serial and one
// parallel leg over the same cells, with the epoch counters the parallel
// engine reports, and the cost of the dram window snapshot it takes at every
// epoch.
func traceSimParallel(e *env, cells []cell, smJobs int) error {
	order := inOrder(len(cells))
	serial, err := simulateCells(e, cells, order)
	if err != nil {
		return err
	}
	// Two parallel legs; the second one's cells become spans. The spans are
	// written from the recorded times afterwards, so tracing costs this
	// workload nothing and the ratio of the two legs shows it.
	bare, err := simulateCells(e, cells, order, engineOpts(smJobs)...)
	if err != nil {
		return err
	}
	par, err := simulateCells(e, cells, order, engineOpts(smJobs)...)
	if err != nil {
		return err
	}
	var epochs, epochCycles, cycles int64
	for i, c := range cells {
		res := par.results[i]
		e.spans.record("gpu.simulate", 0, int64(i+1), c.String(), par.start[i], par.wall[i])
		e.checkf(sameOutcome(res, serial.results[i]), "%s: -smjobs %d differs from the serial engine", c, smJobs)
		epochs += res.EngineStats.Epochs
		epochCycles += res.EngineStats.EpochCycles
		cycles += res.Cycles
	}
	e.note("stats_digest", statsDigest(cells, par.results))
	n := len(cells)
	e.set("gpu.par2_over_serial", float64(par.total())/float64(serial.total()), n)
	e.set("gpu.epochs", float64(epochs), n)
	e.set("gpu.epoch_coverage", float64(epochCycles)/float64(max(cycles, 1)), n)
	if epochs > 0 {
		e.set("gpu.par2_us_per_epoch", us(par.total()-serial.total())/float64(epochs), n)
	}
	e.set("bench.trace_overhead_ratio", float64(par.total())/float64(bare.total()), n)
	e.set("dram.peek_window_us", peekWindowUS(), 9)
	return nil
}
