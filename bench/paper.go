package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/resultstore"
	"apres/internal/twin"
	"apres/internal/version"
)

// The paper's Figure-10 suite means (IPC gain over the baseline, all 15
// applications) that the fidelity metrics are measured against.
const (
	paperAPRESGainPct   = 24.2
	paperCCWSSTRGainPct = 17.5
)

// namedCell is one cell of a matrix run through harness.Runner, which
// resolves the workload and configuration by name itself.
type namedCell struct{ app, cfg string }

func matrix(apps, cfgs []string) []namedCell {
	cells := make([]namedCell, 0, len(apps)*len(cfgs))
	for _, a := range apps {
		for _, c := range cfgs {
			cells = append(cells, namedCell{a, c})
		}
	}
	return cells
}

// matrixRun is one pass of a matrix through a Runner.
type matrixRun struct {
	results  []gpu.Result
	wall     time.Duration
	cellWall []time.Duration // each cell's RunNamed call
}

func (m matrixRun) cellSum() time.Duration {
	var sum time.Duration
	for _, d := range m.cellWall {
		sum += d
	}
	return sum
}

// newRunner builds a Runner the way cmd/experiments does, over a store in
// dir ("" runs without one).
func newRunner(scale float64, sms, jobs int, dir string) (*harness.Runner, error) {
	r := harness.NewRunner(scale, sms)
	r.Jobs = jobs
	if dir != "" {
		st, err := resultstore.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		r.Store = st
	}
	return r, nil
}

// runMatrix sends every cell through r.RunNamed in the given order from
// callers goroutines (a closed loop: each caller asks for its next cell when
// the previous one returns). With a non-nil span log it records one span per
// cell under a span for the whole matrix.
func runMatrix(e *env, spans *spanLog, r *harness.Runner, cells []namedCell, order []int, callers int) (matrixRun, error) {
	run := matrixRun{results: make([]gpu.Result, len(cells)), cellWall: make([]time.Duration, len(cells))}
	next := make(chan int)
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	root := spans.add(span{Name: "harness.matrix"}) // filled in below, once the wall time is known
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				res, err := r.RunNamed(context.Background(), cells[i].app, cells[i].cfg, false, harness.RunOpts{})
				run.cellWall[i] = time.Since(t0)
				e.op(err == nil)
				run.results[i], errs[i] = res, err
				spans.record("harness.run_named", root, int64(i+1), cells[i].app+"/"+cells[i].cfg, t0, run.cellWall[i])
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	run.wall = time.Since(start)
	if spans != nil {
		spans.mu.Lock()
		s := &spans.spans[root-1]
		s.StartNS, s.DurNS = int64(start.Sub(spans.t0)), int64(run.wall)
		spans.mu.Unlock()
	}
	for i, err := range errs {
		if err != nil {
			return run, fmt.Errorf("%s/%s: %w", cells[i].app, cells[i].cfg, err)
		}
	}
	return run, nil
}

// replayMatrix asks r for every cell again, in matrix order, from the calling
// goroutine: a replay is microseconds per cell, and handing cells to callers
// over a channel would cost more than the cells.
func replayMatrix(e *env, r *harness.Runner, cells []namedCell) (matrixRun, error) {
	run := matrixRun{results: make([]gpu.Result, len(cells))}
	start := time.Now()
	for i, c := range cells {
		res, err := r.RunNamed(context.Background(), c.app, c.cfg, false, harness.RunOpts{})
		e.op(err == nil)
		if err != nil {
			return run, fmt.Errorf("%s/%s: %w", c.app, c.cfg, err)
		}
		run.results[i] = res
	}
	run.wall = time.Since(start)
	return run, nil
}

// sameResults reports whether a replay returned what the cold run simulated.
// EngineStats is execution metadata the caches strip, so it is left out.
func sameResults(cold, replay []gpu.Result) bool {
	for i := range cold {
		a, b := cold[i], replay[i]
		a.EngineStats, b.EngineStats = gpu.Result{}.EngineStats, gpu.Result{}.EngineStats
		if !reflect.DeepEqual(a, b) {
			return false
		}
	}
	return true
}

// paperRep is one cold repetition with its replays.
type paperRep struct {
	cold     matrixRun
	memoMS   []float64 // wall of each memo replay of the whole matrix
	storeMS  []float64 // wall of each store replay on a fresh Runner
	stats    harness.RunStats
	storeDir string
}

const (
	memoReplays  = 200
	storeReplays = 15
)

// paperRepetition runs the matrix cold on a fresh Runner and store, then
// replays it from the Runner's memo and, on fresh Runners, from the store.
func paperRepetition(e *env, spans *spanLog, cells []namedCell) (paperRep, error) {
	var rep paperRep
	dir, err := e.dir("fig10-store")
	if err != nil {
		return rep, err
	}
	rep.storeDir = dir
	r, err := newRunner(e.size.scale, e.size.sms, nproc(), dir)
	if err != nil {
		return rep, err
	}
	if rep.cold, err = runMatrix(e, spans, r, cells, e.rng.Perm(len(cells)), nproc()); err != nil {
		return rep, err
	}
	// Replays start from a collected heap, or the garbage of the cold run decides
	// when the collector interrupts them.
	runtime.GC()
	for i := 0; i < memoReplays; i++ {
		m, err := replayMatrix(e, r, cells)
		if err != nil {
			return rep, err
		}
		rep.memoMS = append(rep.memoMS, ms(m.wall))
		e.checkf(sameResults(rep.cold.results, m.results), "memo replay %d differs from the cold results", i)
	}
	rep.stats = r.Stats()
	for i := 0; i < storeReplays; i++ {
		fresh, err := newRunner(e.size.scale, e.size.sms, nproc(), dir)
		if err != nil {
			return rep, err
		}
		m, err := replayMatrix(e, fresh, cells)
		if err != nil {
			return rep, err
		}
		rep.storeMS = append(rep.storeMS, ms(m.wall))
		e.checkf(sameResults(rep.cold.results, m.results), "store replay %d differs from the cold results", i)
		st := fresh.Stats()
		e.checkf(st.Simulations == 0 && st.StoreHits == int64(len(cells)), "store replay %d simulated %d cells and hit the store %d times", i, st.Simulations, st.StoreHits)
		rep.stats.StoreHits += st.StoreHits
	}
	return rep, nil
}

// runPaper is paper_fig10: what a cmd/experiments user waits for.
func runPaper(e *env) error {
	apps := harness.AllApps()
	cells := matrix(apps, fig10Configs)
	err := e.timeSetup(func() error {
		// Warm-up: the whole matrix at a small scale through a throwaway
		// Runner and store, so the heap is grown and every config's code path
		// has run before the first timed repetition.
		dir, err := e.dir("fig10-warm")
		if err != nil {
			return err
		}
		r, err := newRunner(warmScale, e.size.sms, nproc(), dir)
		if err != nil {
			return err
		}
		_, err = runMatrix(e, nil, r, cells, inOrder(len(cells)), nproc())
		return err
	}, nil)
	if err != nil {
		return err
	}

	var reps []paperRep
	start := time.Now()
	if e.traced() {
		// One repetition without spans, for the tracing overhead.
		bare, err := paperRepetition(e, nil, cells)
		if err != nil {
			return err
		}
		rep, err := paperRepetition(e, e.spans, cells)
		if err != nil {
			return err
		}
		e.set("bench.trace_overhead_ratio", float64(rep.cold.wall)/float64(bare.cold.wall), 1)
		reps = append(reps, rep)
	} else {
		for len(reps) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(reps)) <= e.budget {
			rep, err := paperRepetition(e, nil, cells)
			if err != nil {
				return err
			}
			reps = append(reps, rep)
		}
	}

	first := reps[0].cold.results
	var coldS, memoMS, storeMS []float64
	for i, rep := range reps {
		e.checkf(sameResults(first, rep.cold.results), "cold repetition %d differs from repetition 0", i)
		coldS = append(coldS, rep.cold.wall.Seconds())
		memoMS = append(memoMS, rep.memoMS...)
		storeMS = append(storeMS, rep.storeMS...)
	}
	var insts, cycles int64
	for _, r := range first {
		insts += r.Total.Instructions
		cycles += r.Cycles
	}
	cold := median(coldS)
	e.set("cold_s", cold, len(coldS))
	e.set("sim_mwinst_per_s", float64(insts)/1e6/cold, len(coldS))
	e.set("sim_mcycles_per_s", float64(cycles)/1e6/cold, len(coldS))
	// What a second cmd/experiments run over the same store waits for; the
	// memo replay, which only a process that stays alive sees, is per-layer.
	e.set("repeat_p50_ms", median(storeMS), len(storeMS))
	e.set("harness.memo_replay_ms", median(memoMS), len(memoMS))
	fidelity(e, apps, first)

	if e.traced() {
		rep := reps[0]
		n := len(cells)
		e.set("harness.memo_hit_us", median(rep.memoMS)*1e3/float64(n), len(rep.memoMS))
		e.set("harness.store_hit_us", median(rep.storeMS)*1e3/float64(n), len(rep.storeMS))
		e.set("harness.pool_efficiency", float64(rep.cold.cellSum())/(float64(nproc())*float64(rep.cold.wall)), n)
		e.set("harness.sims", float64(rep.stats.Simulations), 1)
		e.set("harness.cache_hits", float64(rep.stats.CacheHits), 1)
		e.set("harness.store_hits", float64(rep.stats.StoreHits), 1)
		e.set("harness.dedup_waits", float64(rep.stats.DedupWaits), 1)
		if err := measureColdOverhead(e); err != nil {
			return err
		}
		return measureStore(e, rep.storeDir, first[0])
	}
	return nil
}

// fidelity states the model's error against the paper beside the host-time
// numbers: the Figure-10 suite means and the APRES-vs-CCWS+STR ordering.
// results is in matrix order: per app, base, ccws+str, apres.
func fidelity(e *env, apps []string, results []gpu.Result) {
	var apresSum, ccwsSum float64
	violations := 0
	for i, app := range apps {
		base, ccws, apres := results[3*i], results[3*i+1], results[3*i+2]
		apresSum += float64(base.Cycles) / float64(apres.Cycles)
		ccwsSum += float64(base.Cycles) / float64(ccws.Cycles)
		// The paper has APRES at least as fast as CCWS+STR everywhere but KM.
		if (apres.Cycles <= ccws.Cycles) != (app != "KM") {
			violations++
		}
	}
	n := float64(len(apps))
	apresGain := 100 * (apresSum/n - 1)
	ccwsGain := 100 * (ccwsSum/n - 1)
	e.set("paper.fig10_apres_gap_pp", math.Abs(apresGain-paperAPRESGainPct), len(apps))
	e.set("paper.fig10_ccws_str_gap_pp", math.Abs(ccwsGain-paperCCWSSTRGainPct), len(apps))
	e.set("paper.fig10_order_violations", float64(violations), len(apps))
	e.note("fig10_gain_pct", fmt.Sprintf("apres=%.2f (paper %.1f) ccws+str=%.2f (paper %.1f)", apresGain, paperAPRESGainPct, ccwsGain, paperCCWSSTRGainPct))
}

// measureColdOverhead is what the harness adds to a cold simulation: RunNamed
// on a fresh Runner with a store, minus a bare gpu.Simulate of the same cell.
func measureColdOverhead(e *env) error {
	cells, err := buildCells(simApps, []string{"base"}, e.size.scale, e.size.sms)
	if err != nil {
		return err
	}
	bare := func(c cell) (time.Duration, error) {
		t0 := time.Now()
		_, err := gpu.Simulate(c.cfg, c.kern)
		e.op(err == nil)
		return time.Since(t0), err
	}
	through := func(c cell) (time.Duration, error) {
		dir, err := e.dir("overhead-store")
		if err != nil {
			return 0, err
		}
		r, err := newRunner(e.size.scale, e.size.sms, 1, dir)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = r.RunNamed(context.Background(), c.app, c.cfgName, false, harness.RunOpts{})
		d := time.Since(t0)
		e.op(err == nil)
		e.spans.record("harness.run_named", 0, 0, c.String()+" cold", t0, d)
		return d, err
	}
	var over []float64
	for i, c := range cells {
		// Alternate which goes first, so that neither side always runs on the
		// heap the other left behind.
		first, second := bare, through
		if i%2 == 1 {
			first, second = through, bare
		}
		a, err := first(c)
		if err != nil {
			return err
		}
		b, err := second(c)
		if err != nil {
			return err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		over = append(over, ms(b-a))
	}
	e.set("harness.cold_overhead_ms", median(over), len(over))
	return nil
}

// measureStore times the result store's own operations on a real entry.
func measureStore(e *env, usedDir string, res gpu.Result) error {
	key := ""
	e.set("resultstore.key_us", nsPerOp(compRounds, 200, func(n int) {
		for i := 0; i < n; i++ {
			key = resultstore.Key(res.Kernel, e.size.scale, false, res.Config, version.Stamp())
		}
	})/1e3, compRounds)

	dir, err := e.dir("store-ops")
	if err != nil {
		return err
	}
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		return err
	}
	entry := resultstore.Entry{Workload: res.Kernel, Scale: e.size.scale, Version: version.Stamp(),
		Engine: twin.EngineCycleAccurate, Result: res}
	var putErr error
	e.set("resultstore.put_us", nsPerOp(compRounds, 20, func(n int) {
		for i := 0; i < n; i++ {
			if err := st.Put(key, entry); err != nil {
				putErr = err
			}
		}
	})/1e3, compRounds)
	if putErr != nil {
		return putErr
	}
	e.set("resultstore.get_mem_us", nsPerOp(compRounds, 2000, func(n int) {
		for i := 0; i < n; i++ {
			st.Get(key)
		}
	})/1e3, compRounds)
	ok := true
	e.set("resultstore.get_disk_us", nsPerOp(compRounds, 20, func(n int) {
		for i := 0; i < n; i++ {
			fresh, err := resultstore.Open(dir, 0) // an empty memory front: Get reads the file
			if err != nil {
				ok = false
				return
			}
			if _, hit := fresh.Get(key); !hit {
				ok = false
			}
		}
	})/1e3, compRounds)
	e.checkf(ok, "resultstore: an entry just written was not found on disk")

	var bytes, files int64
	err = filepath.Walk(usedDir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			bytes += info.Size()
			files++
		}
		return err
	})
	if err != nil {
		return err
	}
	if files > 0 {
		e.set("resultstore.entry_kb", float64(bytes)/float64(files)/1024, int(files))
	}
	return nil
}
