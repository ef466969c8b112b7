package main

import (
	"time"

	"apres/internal/arch"
	"apres/internal/core"
	"apres/internal/dram"
	"apres/internal/gpu"
	"apres/internal/noc"
	"apres/internal/stats"
)

// layerTimes is where one cell's host time went, as estimated by the
// instrumented driver. The timed intervals tile every sampled cycle, so the
// *NS fields, each net of the timer's own cost, add up to what the sampled
// cycles took; scaleTo turns them into shares of a wall time. The counts are
// exact.
type layerTimes struct {
	wall   time.Duration // the whole driver run, instrumentation included
	cycles int64

	coreTickNS float64 // SM.Tick, without the dram.Request calls it makes
	coreFillNS float64 // SM.HandleFill
	dramTickNS float64 // MemSystem.Tick
	dramReqNS  float64 // MemSystem.Request, called from inside SM.Tick
	nocNS      float64 // Network.Enqueue + Network.Deliver
	loopNS     float64 // the driver's own loop: the termination check after the SMs

	ticks, fills, requests, delivers, responses int64
}

// scaleTo rescales the layer times so that they add up to total: the driver
// gives the split, a run without timers gives the amount. (Extrapolating the
// sampled cycles directly overshoots the wall time by a few percent, because
// a timer read costs more between cache-missing simulator calls than in the
// calibration loop.)
func (a *layerTimes) scaleTo(total time.Duration) {
	sum := a.coreTickNS + a.coreFillNS + a.dramTickNS + a.dramReqNS + a.nocNS + a.loopNS
	if sum <= 0 {
		return
	}
	k := float64(total) / sum
	a.coreTickNS *= k
	a.coreFillNS *= k
	a.dramTickNS *= k
	a.dramReqNS *= k
	a.nocNS *= k
	a.loopNS *= k
}

func (a *layerTimes) add(b layerTimes) {
	a.wall += b.wall
	a.cycles += b.cycles
	a.coreTickNS += b.coreTickNS
	a.coreFillNS += b.coreFillNS
	a.dramTickNS += b.dramTickNS
	a.dramReqNS += b.dramReqNS
	a.nocNS += b.nocNS
	a.loopNS += b.loopNS
	a.ticks += b.ticks
	a.fills += b.fills
	a.requests += b.requests
	a.delivers += b.delivers
	a.responses += b.responses
}

// lapCostNS measures what one timed interval costs when nothing happens in
// it: the clock read, the subtraction and the store that lap does. That cost
// is taken out of every interval; the layers' calls are tens of nanoseconds
// long, the same order as the clock.
func lapCostNS() float64 {
	var sink int64
	t := time.Now()
	cost := nsPerOp(5, 20000, func(n int) {
		for i := 0; i < n; i++ {
			sink += lap(&t)
		}
	})
	lapSink = sink
	return cost
}

// lapSink keeps the calibration loop's result alive.
var lapSink int64

// timedPort is the SMs' injection point into the memory system. It counts
// every request and, on a sampled cycle, times it, so that the time SM.Tick
// spends inside dram can be told apart from the SM's own.
type timedPort struct {
	mem      *dram.MemSystem
	sampling bool
	requests int64
	timed    int64
	ns       int64
}

func (p *timedPort) Request(req arch.MemReq, cycle int64) {
	p.requests++
	if !p.sampling {
		p.mem.Request(req, cycle)
		return
	}
	t0 := time.Now()
	p.mem.Request(req, cycle)
	p.ns += int64(time.Since(t0))
	p.timed++
}

// lap returns the time since *t and restarts it.
func lap(t *time.Time) int64 {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return int64(d)
}

// driveCell simulates one cell with the per-cycle serial loop of
// gpu.RunContext, rebuilt here from the layers' exported calls, with
// monotonic-clock accumulators around dram, noc and core. Only about one
// cycle in sampleEvery is timed, which keeps the overhead well under 2x. The
// caller checks the result against gpu.Simulate(WithoutCycleSkipping()) and
// scales the layer times to that run's wall time.
func driveCell(c cell, sampleEvery int, lapNS float64) (gpu.Result, layerTimes, error) {
	cfg := c.cfg
	if err := cfg.Validate(); err != nil {
		return gpu.Result{}, layerTimes{}, err
	}
	var shared stats.Stats
	memSys := dram.New(cfg, &shared)
	net := noc.New(cfg.NumSMs, cfg.NoCBytesPerCycle, &shared)
	port := &timedPort{mem: memSys}
	smStats := make([]stats.Stats, cfg.NumSMs)
	sms := make([]*core.SM, cfg.NumSMs)
	for i := range sms {
		sm, err := core.NewSM(i, cfg, c.kern, port, &smStats[i])
		if err != nil {
			return gpu.Result{}, layerTimes{}, err
		}
		sms[i] = sm
	}
	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 62
	}

	var (
		lt                                    layerTimes
		tickNS, fillNS, dramNS, nocNS, loopNS int64 // summed over sampled cycles
		tickLaps, fillLaps, dramLaps, nocLaps int64
		sampled                               int64
		rng                                   = uint64(0x9E3779B97F4A7C15)
		nextSample                            int64
		hitMax                                bool
		cycle                                 int64
		t                                     time.Time
	)
	start := time.Now()
	for ; ; cycle++ {
		if cycle >= maxCycles {
			hitMax = true
			break
		}
		sample := cycle == nextSample
		if sample {
			// xorshift gap with mean sampleEvery: random rather than periodic
			// sampling, so a kernel's loop period cannot alias with it.
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			nextSample = cycle + 1 + int64(rng%uint64(2*sampleEvery-1))
			sampled++
			t = time.Now()
		}
		port.sampling = sample

		resp := memSys.Tick(cycle)
		if sample {
			dramNS += lap(&t)
			dramLaps++
		}
		for _, r := range resp {
			net.Enqueue(r)
		}
		lt.responses += int64(len(resp))
		if sample && len(resp) > 0 {
			nocNS += lap(&t)
			nocLaps++
		}

		allDone := true
		for i, sm := range sms {
			fills := net.Deliver(i, cycle)
			lt.delivers++
			if sample {
				nocNS += lap(&t)
				nocLaps++
			}
			for _, r := range fills {
				sm.HandleFill(r, cycle)
			}
			if len(fills) > 0 {
				lt.fills += int64(len(fills))
				if sample {
					fillNS += lap(&t)
					fillLaps++
				}
			}
			if sm.Done() {
				continue
			}
			allDone = false
			sm.Tick(cycle)
			lt.ticks++
			if sample {
				tickNS += lap(&t)
				tickLaps++
			}
		}
		finished := allDone && memSys.Drained() && !net.Pending()
		if sample {
			loopNS += lap(&t)
		}
		if finished {
			break
		}
	}
	lt.wall = time.Since(start)
	lt.cycles = cycle
	lt.requests = port.requests

	// Take the timer's own cost out of each interval. A request timed inside
	// SM.Tick costs that interval one more timer, of which the request's own
	// interval sees half.
	net0 := func(ns int64, laps float64) float64 { return max(0, float64(ns)-lapNS*laps) }
	lt.dramTickNS = net0(dramNS, float64(dramLaps))
	lt.nocNS = net0(nocNS, float64(nocLaps))
	lt.coreFillNS = net0(fillNS, float64(fillLaps))
	lt.dramReqNS = net0(port.ns, float64(port.timed)/2)
	lt.coreTickNS = max(0, net0(tickNS, float64(tickLaps+port.timed))-lt.dramReqNS)
	lt.loopNS = net0(loopNS, float64(sampled))

	res := gpu.Result{Config: cfg, Kernel: c.kern.Name, Cycles: cycle, HitMaxCycles: hitMax,
		PerSM: make([]stats.Stats, len(sms))}
	for i, sm := range sms {
		sm.FinalizePrefetchStats()
		res.PerSM[i] = smStats[i]
		res.Total.Add(&smStats[i])
	}
	net.FlushStats()
	res.Total.Add(&shared)
	res.Total.Cycles = cycle
	return res, lt, nil
}
