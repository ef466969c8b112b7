// Worker-pool execution layer: bounds how many simulations run at once and
// fans independent (workload, configuration) cells out across GOMAXPROCS
// workers. All collection helpers assemble results in input order, so every
// table and figure renders byte-identically no matter how runs interleave.
package harness

import (
	"context"
	"runtime"
	"sync"

	"apres/internal/gpu"
)

// RunStats counts what a Runner's cache and worker pool did. Deltas between
// snapshots give per-experiment figures (cmd/experiments reports them).
type RunStats struct {
	// Simulations is the number of simulations actually executed.
	Simulations int64
	// CacheHits is the number of Run calls answered from the result cache.
	CacheHits int64
	// DedupWaits is the number of Run calls that joined an identical
	// in-flight run instead of simulating it a second time.
	DedupWaits int64
	// StoreHits is the number of runs answered from the persistent result
	// store instead of simulating.
	StoreHits int64
	// StoreErrors counts failed persistent-store writes (the run itself
	// still succeeds).
	StoreErrors int64
	// TwinServed is the number of engine-selected runs answered by the
	// analytical twin (fresh predictions and twin-tagged store entries).
	TwinServed int64
	// TwinEscalations is the number of auto-engine runs that fell back to
	// the cycle-accurate simulator (error bound over tolerance, a request
	// the twin cannot serve, or a twin prediction error).
	TwinEscalations int64
}

// Sub returns s minus o, for per-experiment deltas.
func (s RunStats) Sub(o RunStats) RunStats {
	return RunStats{
		Simulations:     s.Simulations - o.Simulations,
		CacheHits:       s.CacheHits - o.CacheHits,
		DedupWaits:      s.DedupWaits - o.DedupWaits,
		StoreHits:       s.StoreHits - o.StoreHits,
		StoreErrors:     s.StoreErrors - o.StoreErrors,
		TwinServed:      s.TwinServed - o.TwinServed,
		TwinEscalations: s.TwinEscalations - o.TwinEscalations,
	}
}

// Stats returns a snapshot of the Runner's cache and pool counters.
func (r *Runner) Stats() RunStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// workers returns the pool size: Jobs, or GOMAXPROCS when Jobs is 0.
func (r *Runner) workers() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// inflightRun tracks one simulation in progress so identical concurrent
// requests simulate once and share the result (singleflight).
type inflightRun struct {
	done chan struct{}
	out  Outcome
	err  error
}

// acquireSlot blocks until a simulation slot is free (or ctx is cancelled)
// and returns its release function. The semaphore is sized on first use,
// so Jobs must be set before the Runner's first run.
func (r *Runner) acquireSlot(ctx context.Context) (func(), error) {
	r.mu.Lock()
	if r.sem == nil {
		r.sem = make(chan struct{}, r.workers())
	}
	sem := r.sem
	r.mu.Unlock()
	r.waiting.Add(1)
	defer r.waiting.Add(-1)
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// PoolGauges reports the worker pool's instantaneous state: its slot
// capacity, how many simulations currently hold a slot, and how many
// callers are queued waiting for one. The daemon exposes these in /metrics.
func (r *Runner) PoolGauges() (capacity, busy, waiting int) {
	r.mu.Lock()
	capacity = r.workers()
	if r.sem != nil {
		busy = len(r.sem)
	}
	r.mu.Unlock()
	return capacity, busy, int(r.waiting.Load())
}

// simulate executes one cell under the pool's concurrency bound. Every
// simulation the Runner performs funnels through here, so nested fan-outs
// (figure over series over apps) never oversubscribe the machine. The
// request's SMJobs overrides the Runner-wide one when nonzero; whichever
// wins, it only selects the engine, never the result.
func (r *Runner) simulate(ctx context.Context, c *job) (gpu.Result, error) {
	w, err := r.workload(c)
	if err != nil {
		return gpu.Result{}, err
	}
	release, err := r.acquireSlot(ctx)
	if err != nil {
		return gpu.Result{}, err
	}
	defer release()
	r.count(&r.stats.Simulations)
	var opts []gpu.Option
	if c.Tracer != nil {
		opts = append(opts, gpu.WithTrace(c.Tracer))
	}
	if c.LoadStats {
		opts = append(opts, gpu.WithLoadStats())
	}
	smJobs := c.SMJobs
	if smJobs == 0 {
		smJobs = r.SMJobs
	}
	if smJobs > 1 {
		opts = append(opts, gpu.WithParallelSMs(smJobs))
	}
	return gpu.SimulateContext(ctx, c.Inline, w.Kernel, opts...)
}

// mapConcurrent applies f to every item using at most workers goroutines
// and returns the results in input order. When any calls fail, the error
// of the lowest-index failure is returned, so error behaviour is as
// deterministic as success output. With one worker it degenerates to the
// plain serial loop (and stops at the first error, like the old code).
func mapConcurrent[T, R any](workers int, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	if workers > n {
		workers = n
	}
	out := make([]R, n)
	if workers <= 1 {
		for i, item := range items {
			v, err := f(i, item)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = f(i, items[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
