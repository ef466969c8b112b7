// Package harness regenerates every table and figure of the APRES paper's
// evaluation (Table I, Table II, Figures 2-4 and 10-15) from simulation
// runs. A Runner caches results so the full suite simulates each distinct
// (workload, configuration) pair exactly once.
package harness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/resultstore"
	"apres/internal/stats"
	"apres/internal/trace"
	"apres/internal/twin"
	"apres/internal/version"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// NamedConfig resolves the configuration names the experiments use:
// "base", a scheduler name ("gto", "twolevel", "ccws", "mascar", "pa",
// "laws"), optionally combined with a prefetcher ("ccws+str", "laws+sld"),
// the special "apres" (coupled LAWS+SAP), and "l1-32mb" (the Figure 2
// hypothetical large cache).
func NamedConfig(name string) (config.Config, error) {
	switch name {
	case "base":
		return config.Baseline(), nil
	case "apres":
		return config.APRES(), nil
	case "l1-32mb":
		c := config.Baseline()
		c.L1SizeBytes = 32 << 20
		return c, nil
	}
	parts := strings.Split(name, "+")
	c := config.Baseline()
	switch parts[0] {
	case "lrr":
		c.Scheduler = config.SchedLRR
	case "gto":
		c.Scheduler = config.SchedGTO
	case "twolevel":
		c.Scheduler = config.SchedTwoLevel
	case "ccws":
		c.Scheduler = config.SchedCCWS
	case "mascar":
		c.Scheduler = config.SchedMASCAR
	case "pa":
		c.Scheduler = config.SchedPA
	case "laws":
		c.Scheduler = config.SchedLAWS
	default:
		return config.Config{}, fmt.Errorf("harness: unknown config %q", name)
	}
	if len(parts) == 2 {
		switch parts[1] {
		case "str":
			c.Prefetcher = config.PrefSTR
		case "sld":
			c.Prefetcher = config.PrefSLD
		default:
			return config.Config{}, fmt.Errorf("harness: unknown prefetcher in %q", name)
		}
	} else if len(parts) > 2 {
		return config.Config{}, fmt.Errorf("harness: malformed config %q", name)
	}
	if err := c.Validate(); err != nil {
		return config.Config{}, fmt.Errorf("harness: config %q: %w", name, err)
	}
	return c, nil
}

// memoEntry is one memoised exact result with its store address, so a memo
// hit reports the address without hashing the run again.
type memoEntry struct {
	res gpu.Result
	key string
}

// Runner executes and caches simulation runs. All methods are safe for
// concurrent use: independent runs execute in parallel across a worker
// pool of Jobs goroutines, identical concurrent requests are deduplicated
// to a single simulation, and completed results are memoised.
type Runner struct {
	// Scale multiplies workload iteration counts (tests use small
	// scales; 1.0 reproduces the full-size runs).
	Scale float64
	// SMs overrides the SM count when nonzero.
	SMs int
	// Jobs bounds how many simulations execute concurrently (the worker
	// pool size); 0 means GOMAXPROCS. Set it before the first run.
	Jobs int
	// SMJobs shards each simulation's per-SM loop across this many worker
	// goroutines (gpu.WithParallelSMs); 0 or 1 runs the serial engine.
	// The parallel engine is bit-identical to the serial one, so SMJobs is
	// deliberately absent from the memo and store keys — it is an execution
	// detail, not part of the run's identity.
	SMJobs int
	// Store, when non-nil, persists results on disk keyed by a content
	// hash of the exact run (workload, scale, full config, version stamp),
	// so warm results survive process restarts and are shared between the
	// CLIs and the daemon.
	Store *resultstore.Store
	// EngineDefault serves every Request that names no engine (the paper
	// figures, for one), so a whole experiment suite can be answered
	// analytically. Requests that need a real execution — load statistics,
	// a tracer — still get one: a twin default steps aside for them, an
	// auto default counts an escalation. "" or EngineCycleAccurate keep
	// the exact path.
	EngineDefault string
	// EngineTolerance is the auto escalation threshold used with
	// EngineDefault (0 = calibration default).
	EngineTolerance float64

	mu       sync.Mutex
	cache    map[Cell]memoEntry
	inflight map[Cell]*inflightRun
	sem      chan struct{}
	stats    RunStats
	waiting  atomic.Int64

	// twinOnce/twinModel lazily hold the analytical twin shared by every
	// engine-selected run on this Runner (its feature memo makes repeat
	// queries cost microseconds).
	twinOnce  sync.Once
	twinModel *twin.Model
}

// NewRunner returns a Runner at the given workload scale (1.0 = full size).
func NewRunner(scale float64, sms int) *Runner {
	if scale <= 0 {
		scale = 1
	}
	return &Runner{
		Scale:    scale,
		SMs:      sms,
		cache:    make(map[Cell]memoEntry),
		inflight: make(map[Cell]*inflightRun),
	}
}

// RunOpts carries per-call execution overrides. Everything in it changes
// only how a simulation executes, never what it computes, so none of it
// participates in memo, singleflight, or store keys.
type RunOpts struct {
	// SMJobs overrides Runner.SMJobs for this call when nonzero.
	SMJobs int
}

// Request names one cell — a workload under a configuration — and how to
// answer it. Exactly one of Workload and Spec selects the workload; Config
// names the configuration, and when it is empty Inline is the configuration.
type Request struct {
	// Workload is a Table-IV benchmark name.
	Workload string
	// Spec is a declarative workload, keyed everywhere by its canonical
	// content digest.
	Spec *workspec.Spec
	// Config is a NamedConfig name.
	Config string
	// Inline is the full configuration of a request without a Config name;
	// Resolve fills it in from a Config name.
	Inline config.Config
	// LoadStats collects per-PC load characterisation (Table I); it needs a
	// real execution.
	LoadStats bool
	// Tracer, when non-nil, is attached to the run, which then always
	// executes: a trace is a property of an actual execution, so the memo,
	// the singleflight map and the store are bypassed (the worker pool is
	// not). The caller owns the tracer and closes it after the run.
	Tracer *trace.Tracer
	// EngineReq picks the engine; an empty Engine defers to
	// Runner.EngineDefault and a zero Tolerance to Runner.EngineTolerance.
	EngineReq
	RunOpts

	// cell is the run's identity, as Resolve named it; zero until then.
	cell Cell
}

// Cell is one run's identity, the memo and singleflight key, spelt as the
// store spells it: Workload is a Table-IV name or "spec:<name>:<64 hex>"
// (the spec's canonical digest), Config a NamedConfig name or
// "cfg:<16 hex>" (an inline configuration's digest).
type Cell struct {
	Workload, Config string
	LoadStats        bool
}

// Labels returns the short names responses, metrics and trace artifacts
// use: a spec's digest cut to 12 hex digits and an inline configuration's
// to 8.
func (c Cell) Labels() (workload, config string) {
	workload, config = c.Workload, c.Config
	if strings.HasPrefix(workload, "spec:") && len(workload) > 64 {
		workload = workload[:len(workload)-64+12]
	}
	if strings.HasPrefix(config, "cfg:") && len(config) > len("cfg:")+8 {
		config = config[:len("cfg:")+8]
	}
	return workload, config
}

// String is the cell's placement key: its labels and the load-stats flag,
// NUL-joined. Without scale and version in it, a coordinator routes repeats
// of a cell onto the same node's warm memo and store across restarts.
func (c Cell) String() string {
	w, cfg := c.Labels()
	return w + "\x00" + cfg + "\x00" + strconv.FormatBool(c.LoadStats)
}

// Cell returns the identity Resolve gave the Request; zero before Resolve.
func (req Request) Cell() Cell { return req.cell }

// ErrTwinNeedsRun answers a request that picks the twin engine explicitly
// but needs a real execution.
var ErrTwinNeedsRun = fmt.Errorf("harness: engine %q cannot collect load statistics or traces; use %q or %q", EngineTwin, EngineCycleAccurate, EngineAuto)

// Resolve validates a Request's workload, configuration and engine choice
// and names its Cell, digesting a spec or an inline configuration once. Do
// resolves a Request that is not resolved yet and trusts one that is, so a
// resolved Request's workload, configuration and LoadStats must not change.
func Resolve(req Request) (Request, error) {
	var c Cell
	switch {
	case req.Spec != nil:
		c.Workload = "spec:" + req.Spec.Name + ":" + req.Spec.Digest()
	case workloads.Known(req.Workload):
		c.Workload = req.Workload
	default:
		return req, fmt.Errorf("harness: unknown workload %q", req.Workload)
	}
	cfg := req.Inline
	if req.Config != "" {
		var err error
		if cfg, err = NamedConfig(req.Config); err != nil {
			return req, err
		}
		c.Config = req.Config
	} else {
		if err := cfg.Validate(); err != nil {
			return req, err
		}
		c.Config = "cfg:" + resultstore.ConfigDigest(cfg)
	}
	if _, err := ParseEngine(req.Engine); err != nil {
		return req, err
	}
	if req.Tolerance < 0 {
		return req, fmt.Errorf("harness: tolerance must be >= 0, got %g", req.Tolerance)
	}
	if req.Engine == EngineTwin && (req.LoadStats || req.Tracer != nil) {
		return req, ErrTwinNeedsRun
	}
	c.LoadStats = req.LoadStats
	req.cell, req.Inline = c, cfg
	return req, nil
}

// Outcome is a Request's result plus its provenance.
type Outcome struct {
	Result gpu.Result
	// Engine is the engine that actually produced Result (auto reports
	// what it resolved to).
	Engine string
	// Escalated reports that auto mode fell back to the simulator.
	Escalated bool
	// Bound is the twin's calibrated error bound; zero when Engine is
	// cycle-accurate.
	Bound twin.Bounds
	// Key is the run's content address in the persistent store, where
	// Result can be fetched again; "" when the Runner has no store or the
	// run was traced.
	Key string
	// Cached reports that Result was found — in the memo or in the store —
	// rather than computed by this call. It is set where the hit happens.
	Cached bool
}

// Run simulates workload app under the named configuration.
func (r *Runner) Run(app, cfgName string) (gpu.Result, error) {
	return result(r.Do(context.Background(), Request{Workload: app, Config: cfgName}))
}

// RunNamed is Run with cancellation, load-stats opt-in and per-call
// execution overrides.
func (r *Runner) RunNamed(ctx context.Context, app, cfgName string, loadStats bool, o RunOpts) (gpu.Result, error) {
	return result(r.Do(ctx, Request{Workload: app, Config: cfgName, LoadStats: loadStats, RunOpts: o}))
}

// RunEngineNamed is RunNamed with engine selection and provenance.
func (r *Runner) RunEngineNamed(ctx context.Context, app, cfgName string, loadStats bool, e EngineReq, o RunOpts) (Outcome, error) {
	return r.Do(ctx, Request{Workload: app, Config: cfgName, LoadStats: loadStats, EngineReq: e, RunOpts: o})
}

func result(out Outcome, err error) (gpu.Result, error) { return out.Result, err }

// job is a resolved Request whose Inline configuration carries the
// Runner's overrides: the configuration the simulator, the twin and the
// store key see. vstamp is the version stamp its store entries carry; key
// is its store address once address has hashed it.
type job struct {
	Request
	vstamp, key string
}

// address returns the job's content address in the store, hashing it on
// first use (a memo hit never needs to). It covers the effective run, so
// CLI and daemon processes with the same settings share entries; it is ""
// without a store.
func (r *Runner) address(c *job) string {
	if c.key == "" && r.Store != nil {
		c.key = resultstore.Key(c.cell.Workload, r.Scale, c.cell.LoadStats, c.Inline, c.vstamp)
	}
	return c.key
}

// workload builds the cell's effective workload: the Table-IV model
// constructed, or the spec compiled, then scaled by the Runner. Only a cell
// that reaches the simulator or the twin's model pays for it; one answered
// from the memo or the store never does.
func (r *Runner) workload(c *job) (workloads.Workload, error) {
	var w workloads.Workload
	if c.Spec != nil {
		var err error
		if w, err = c.Spec.Compile(); err != nil {
			return w, err
		}
	} else {
		w, _ = workloads.ByName(c.Workload) // Resolve has vouched for the name
	}
	if r.Scale != 1 {
		w.Kernel = w.Kernel.Scaled(r.Scale)
	}
	return w, nil
}

// resolve turns a Request into the job that answers it: Resolve, unless the
// caller already did, then the SM-count override, so the simulator, the twin
// and the store key all see one configuration.
func (r *Runner) resolve(req Request) (job, error) {
	if req.cell == (Cell{}) {
		var err error
		if req, err = Resolve(req); err != nil {
			return job{}, err
		}
	}
	c := job{Request: req, vstamp: version.Stamp()}
	if c.Spec != nil {
		// Spec entries fold the workspec schema+compiler version into
		// their stamp, so a compilation change invalidates them without
		// touching named-workload keys.
		c.vstamp += "+" + workspec.VersionTag()
	}
	if r.SMs > 0 {
		c.Inline.NumSMs = r.SMs
	}
	return c, nil
}

// Do answers one Request. It is the only path that runs a cell: resolve the
// workload and configuration, apply the Runner's overrides, pick the engine,
// then — for the simulator — memo, singleflight, store, worker pool,
// simulate. The analytical twin is tried first when the engine allows it,
// and never touches the memo or the pool.
func (r *Runner) Do(ctx context.Context, req Request) (Outcome, error) {
	c, err := r.resolve(req)
	if err != nil {
		return Outcome{}, err
	}
	// Load statistics and traces need a real execution.
	needsRun := req.LoadStats || req.Tracer != nil
	eng, tol := req.Engine, req.Tolerance
	if eng == "" {
		eng = r.EngineDefault
		if eng == EngineTwin && needsRun {
			// Erroring would make EngineDefault unusable for mixed suites.
			eng = EngineCycleAccurate
		}
	}
	if tol == 0 {
		tol = r.EngineTolerance
	}
	if eng, err = ParseEngine(eng); err != nil {
		return Outcome{}, err
	}
	escalated := eng == EngineAuto && needsRun
	if eng != EngineCycleAccurate && !needsRun {
		out, err := r.twinServe(&c)
		if eng == EngineTwin && err != nil {
			return Outcome{}, err
		}
		if eng == EngineAuto && tol <= 0 {
			tol = r.Twin().DefaultTolerance()
		}
		// Auto's contract is a correct answer: a prediction the twin
		// declined (MaxCycles bound, degenerate output) or one whose bound
		// exceeds the tolerance escalates. An exact store entry found on
		// the way is better than either and is served as it is.
		if err == nil && (eng == EngineTwin || out.Engine == EngineCycleAccurate || !out.Bound.Exceeds(tol)) {
			if out.Engine == EngineTwin {
				// Counted here, at the serving decision: a prediction
				// that escalates was never served.
				r.count(&r.stats.TwinServed)
			}
			return out, nil
		}
		escalated = true
	}
	if escalated {
		r.count(&r.stats.TwinEscalations)
	}
	out, err := r.exact(ctx, &c)
	out.Escalated = escalated
	return out, err
}

// count bumps one RunStats counter.
func (r *Runner) count(n *int64) {
	r.mu.Lock()
	*n++
	r.mu.Unlock()
}

// exact answers a cell from the simulator: memo, then singleflight, then
// runOnce. RunOpts never enter the key: when a serial and a parallel
// request for the same run race, one simulates (with its own engine choice)
// and the other joins it — legitimate only because both engines produce
// bit-identical results.
func (r *Runner) exact(ctx context.Context, c *job) (Outcome, error) {
	if c.Tracer != nil {
		res, err := r.simulate(ctx, c)
		if err != nil {
			return Outcome{}, fmt.Errorf("harness: %s (traced): %w", c.cell.Workload, err)
		}
		return Outcome{Result: res, Engine: EngineCycleAccurate}, nil
	}
	for {
		r.mu.Lock()
		if m, ok := r.cache[c.cell]; ok {
			r.stats.CacheHits++
			r.mu.Unlock()
			return Outcome{Result: m.res, Engine: EngineCycleAccurate, Key: m.key, Cached: true}, nil
		}
		fl, waiting := r.inflight[c.cell]
		if !waiting {
			break // with r.mu held: this call becomes the leader
		}
		// Someone is already simulating this exact run: wait for it
		// instead of simulating twice.
		r.stats.DedupWaits++
		r.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		}
		// The leader's cancellation is its own: a follower whose context
		// is still live asks again, and may become the leader.
		if fl.err == nil || ctx.Err() != nil ||
			!(errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)) {
			return fl.out, fl.err
		}
	}
	fl := &inflightRun{done: make(chan struct{})}
	r.inflight[c.cell] = fl
	r.mu.Unlock()

	fl.out, fl.err = r.runOnce(ctx, c)

	r.mu.Lock()
	if fl.err == nil {
		// Memoise without EngineStats: the cached value stands for the
		// simulated result — engine-independent by the bit-identical
		// guarantee — not for any particular execution of it. Only the
		// callers of the run that actually simulated see its epoch
		// counters.
		m := memoEntry{res: fl.out.Result, key: fl.out.Key}
		m.res.EngineStats = stats.EngineStats{}
		r.cache[c.cell] = m
	}
	delete(r.inflight, c.cell)
	r.mu.Unlock()
	close(fl.done)
	return fl.out, fl.err
}

// runOnce performs the actual simulation of one cell, consulting the
// persistent store first when the cell is addressable.
func (r *Runner) runOnce(ctx context.Context, c *job) (Outcome, error) {
	out := Outcome{Engine: EngineCycleAccurate, Key: r.address(c)}
	if out.Key != "" {
		// Twin-tagged entries share keys with exact runs but are only
		// approximations: the exact path treats them as misses, and the
		// Put below overwrites them in place (escalation promotes an
		// approximate entry to an exact one, never the other way).
		if e, ok := r.Store.Get(out.Key); ok && e.Exact() {
			r.count(&r.stats.StoreHits)
			out.Result, out.Cached = e.Result, true
			return out, nil
		}
	}
	var err error
	if out.Result, err = r.simulate(ctx, c); err != nil {
		return Outcome{}, fmt.Errorf("harness: %s/%s: %w", c.cell.Workload, c.cell.Config, err)
	}
	// Stored entries carry the simulated result only: EngineStats is
	// per-execution metadata (and sm_jobs never enters store keys), so
	// daemons running the same workload with different engines must
	// persist byte-identical entries.
	stored := out.Result
	stored.EngineStats = stats.EngineStats{}
	r.put(c, resultstore.Entry{LoadStats: c.LoadStats, Engine: twin.EngineCycleAccurate, Result: stored})
	return out, nil
}

// put persists one addressable cell's entry. A persistence failure must not
// fail the run; it is counted so metrics surface a sick store.
func (r *Runner) put(c *job, e resultstore.Entry) {
	key := r.address(c)
	if key == "" {
		return
	}
	e.Workload, e.Scale, e.Version = c.cell.Workload, r.Scale, c.vstamp
	if err := r.Store.Put(key, e); err != nil {
		r.count(&r.stats.StoreErrors)
	}
}

// Series is one labelled row of per-application values.
type Series struct {
	Name   string
	Values map[string]float64
}

// Mean returns the arithmetic mean over the given apps (the paper reports
// arithmetic averages of normalised metrics).
func (s Series) Mean(apps []string) float64 {
	if len(apps) == 0 {
		return 0
	}
	var sum float64
	for _, a := range apps {
		sum += s.Values[a]
	}
	return sum / float64(len(apps))
}

// Chart is a rendered figure: per-app series plus app ordering.
type Chart struct {
	Title  string
	Apps   []string
	Series []Series
	// Format is the fmt verb for values (default %.3f).
	Format string
}

// Render returns an aligned text table with a trailing mean column.
func (c *Chart) Render() string {
	format := c.Format
	if format == "" {
		format = "%.3f"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	fmt.Fprintf(&b, "%-12s", "")
	for _, a := range c.Apps {
		fmt.Fprintf(&b, "%8s", a)
	}
	fmt.Fprintf(&b, "%8s\n", "MEAN")
	for _, s := range c.Series {
		fmt.Fprintf(&b, "%-12s", s.Name)
		for _, a := range c.Apps {
			fmt.Fprintf(&b, "%8s", fmt.Sprintf(format, s.Values[a]))
		}
		fmt.Fprintf(&b, "%8s\n", fmt.Sprintf(format, s.Mean(c.Apps)))
	}
	return b.String()
}

// SeriesByName returns the named series.
func (c *Chart) SeriesByName(name string) (Series, bool) {
	for _, s := range c.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// AllApps returns the 15 benchmark names in paper order.
func AllApps() []string { return workloads.Names() }

// MemoryIntensiveApps returns the ten memory-intensive benchmarks.
func MemoryIntensiveApps() []string {
	var out []string
	for _, w := range workloads.MemoryIntensiveSet() {
		out = append(out, w.Name())
	}
	return out
}
