// Package server implements apresd's HTTP API: simulation as a service on
// top of harness.Runner (worker pool, singleflight dedup, in-memory memo)
// and resultstore.Store (persistent content-addressed results). The JSON
// API is:
//
//	POST /v1/simulate       one (workload, config) run -> full statistics
//	POST /v1/sweep          workload x config matrix -> per-cell summaries
//	GET  /v1/results/{key}  fetch a stored entry by content address
//	GET  /v1/traces/{id}    download a trace artifact from a traced run
//	GET  /healthz           liveness + version
//	GET  /metrics           Prometheus text format, no external deps
//
// POST /v1/simulate accepts a trace opt-in ("trace": true): the run then
// executes with the cycle-level tracer attached (bypassing every cache —
// traces need an actual execution) and the response carries a /v1/traces
// URL for the Chrome-trace/Perfetto JSON artifact.
//
// Configurations are either named (harness.NamedConfig names such as
// "apres" or "ccws+str") or inline full config.Config JSON objects. Bad
// requests — unknown workloads, unknown config names, configurations that
// fail config.Validate — return 400 with a JSON error body.
//
// Workloads are either named (the 15 Table-IV models) or inline workspec
// objects ("spec": {...}, including trace-replay specs): the spec is
// validated (field-precise 400s on schema violations), compiled, and run
// through the same caches, keyed by its canonical content digest — so an
// identical spec POSTed twice simulates once and is served from the store
// on repeat, however its JSON was formatted.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/resultstore"
	"apres/internal/trace"
	"apres/internal/twin"
	"apres/internal/version"
	"apres/internal/workspec"
)

// Options configures a Server.
type Options struct {
	// Runner executes simulations. Required. Attach a resultstore to it
	// (Runner.Store) for persistence; the server reads the same store for
	// GET /v1/results.
	Runner *harness.Runner
	// SimTimeout bounds each request's simulation wall time; 0 means no
	// per-request timeout.
	SimTimeout time.Duration
	// TraceDir is where traced runs write their artifacts. Empty disables
	// the trace opt-in (requests with "trace": true get 400).
	TraceDir string
	// ShedWatermark enables queue-depth-aware admission control: when the
	// worker pool already has at least this many callers waiting for a
	// slot, new simulate/sweep requests are shed with 429 + Retry-After
	// instead of deepening the backlog. 0 disables shedding. A cluster
	// coordinator treats the 429 as a rebalance signal, not a failure.
	ShedWatermark int
}

// Server is the apresd HTTP handler. Create with New; it is safe for
// concurrent use.
type Server struct {
	*Skeleton
	opts    Options
	runner  *harness.Runner
	metrics *metrics
	started time.Time

	traceMu  sync.Mutex
	traces   map[string]string // trace id -> artifact path
	traceSeq atomic.Int64
}

// New builds a Server over opts.Runner.
func New(opts Options) *Server {
	s := &Server{
		Skeleton: NewSkeleton(),
		opts:     opts,
		runner:   opts.Runner,
		metrics:  newMetrics(),
		started:  time.Now(),
		traces:   make(map[string]string),
	}
	s.Handle("POST /v1/simulate", "simulate", s.handleSimulate)
	s.Handle("POST /v1/sweep", "sweep", s.handleSweep)
	s.Handle("GET /v1/results/{key}", "results", s.handleResult)
	s.Handle("GET /v1/traces/{id}", "traces", s.handleTrace)
	s.Handle("GET /v1/twin/speedups", "twin_speedups", s.handleTwinSpeedups)
	s.Handle("GET /v1/twin/dram", "twin_dram", s.handleTwinDRAM)
	s.Handle("GET /healthz", "healthz", s.handleHealthz)
	s.Handle("GET /metrics", "metrics", s.handleMetrics)
	return s
}

// SimulateRequest is the POST /v1/simulate body. Exactly one of Workload
// (a Table-IV benchmark name) or Spec (an inline workspec object) selects
// the workload, and at most one of Config (a harness.NamedConfig name) or
// ConfigInline (a full config.Config) the configuration; with neither
// config field, "base" is used.
type SimulateRequest struct {
	Workload string `json:"workload,omitempty"`
	// Spec is an inline declarative workload (internal/workspec),
	// including trace-replay specs. It is validated and compiled before
	// the run, and keyed everywhere by its canonical content digest.
	Spec         *workspec.Spec `json:"spec,omitempty"`
	Config       string         `json:"config,omitempty"`
	ConfigInline *config.Config `json:"configInline,omitempty"`
	LoadStats    bool           `json:"loadStats,omitempty"`
	// Trace opts into cycle-level event tracing: the run always executes
	// (no memo/store shortcut) and the response's Trace field links the
	// downloadable Chrome-trace artifact.
	Trace bool `json:"trace,omitempty"`
	// TraceIntervalCycles is the interval-sampler window for a traced run;
	// 0 uses the server default.
	TraceIntervalCycles int64 `json:"traceIntervalCycles,omitempty"`
	// SMJobs shards this run's per-SM loop across that many worker
	// goroutines (0 or 1 = the daemon's default engine). The parallel
	// engine is bit-identical to the serial one, so sm_jobs changes only
	// wall time — store keys and results are the same either way.
	SMJobs int `json:"sm_jobs,omitempty"`
	// Engine selects how the run is answered: "cycle-accurate" (default),
	// "twin" (analytical model, microseconds, carries an error bound), or
	// "auto" (twin when its bound fits the tolerance, simulator otherwise).
	Engine string `json:"engine,omitempty"`
	// Tolerance is auto's escalation threshold on the relative IPC error
	// bound; 0 uses the calibration default.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// SimulateResponse is the POST /v1/simulate reply.
type SimulateResponse struct {
	Workload string `json:"workload"`
	// Config names the configuration: the request's name, or a content
	// digest label for inline configs.
	Config string `json:"config"`
	// Key is the persistent-store content address of this result ("" when
	// the daemon runs without a store).
	Key string `json:"key,omitempty"`
	// Cached reports the result was already available (memo or store)
	// before this request.
	Cached bool  `json:"cached"`
	WallMS int64 `json:"wallMs"`
	// Version is the simulator version stamp that served the request.
	Version string     `json:"version"`
	Result  gpu.Result `json:"result"`
	// Trace is the download URL of the trace artifact for traced runs.
	Trace string `json:"trace,omitempty"`
	// Engine reports which engine actually produced Result.
	Engine string `json:"engine,omitempty"`
	// Escalated reports that an auto-engine request fell back to the
	// cycle-accurate simulator.
	Escalated bool `json:"escalated,omitempty"`
	// ErrorBound is the calibrated error bound of a twin-served result;
	// absent for exact results.
	ErrorBound *twin.Bounds `json:"errorBound,omitempty"`
}

// resolve checks what only the wire format can get wrong — which workload
// and configuration fields are set, sm_jobs, a spec's schema — and hands
// the rest to harness.Resolve, which validates the request and names its
// cell.
func (req *SimulateRequest) resolve() (harness.Request, error) {
	switch {
	case req.Workload == "" && req.Spec == nil:
		return harness.Request{}, errors.New("missing workload: set workload or spec")
	case req.Workload != "" && req.Spec != nil:
		return harness.Request{}, errors.New("workload and spec are mutually exclusive")
	case req.Config != "" && req.ConfigInline != nil:
		return harness.Request{}, errors.New("config and configInline are mutually exclusive")
	case req.SMJobs < 0:
		return harness.Request{}, fmt.Errorf("sm_jobs must be >= 0, got %d", req.SMJobs)
	}
	if req.Spec != nil {
		if err := req.Spec.Validate(); err != nil {
			return harness.Request{}, err
		}
	}
	run := harness.Request{
		Workload:  req.Workload,
		Spec:      req.Spec,
		Config:    req.Config,
		LoadStats: req.LoadStats,
		EngineReq: harness.EngineReq{Engine: req.Engine, Tolerance: req.Tolerance},
		RunOpts:   harness.RunOpts{SMJobs: req.SMJobs},
	}
	if req.ConfigInline != nil {
		run.Inline = *req.ConfigInline
	} else if run.Config == "" {
		run.Config = "base"
	}
	return harness.Resolve(run)
}

// shed applies queue-depth admission control: with a watermark configured
// and the pool backlog at or past it, the request is answered 429 with a
// Retry-After hint and true is returned. Shedding is deliberately checked
// before any validation work — an overloaded worker's job is to say no
// cheaply.
func (s *Server) shed(w http.ResponseWriter) bool {
	if s.opts.ShedWatermark <= 0 {
		return false
	}
	_, _, waiting := s.runner.PoolGauges()
	if waiting < s.opts.ShedWatermark {
		return false
	}
	s.metrics.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusTooManyRequests,
		"overloaded: %d callers queued (shedding watermark %d); retry later", waiting, s.opts.ShedWatermark)
	return true
}

// simCtx derives the per-request simulation context.
func (s *Server) simCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.SimTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.SimTimeout)
	}
	return context.WithCancel(r.Context())
}

// runErrorStatus maps a runner error to an HTTP status.
func runErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// run sends one resolved cell through the Runner with the daemon's
// bookkeeping around it: the in-flight gauge, the per-configuration latency
// histogram and, for an answered run, the engine and epoch counters.
func (s *Server) run(ctx context.Context, req harness.Request) (harness.Outcome, time.Duration, error) {
	s.metrics.inflight.Add(1)
	t0 := time.Now()
	out, err := s.runner.Do(ctx, req)
	wall := time.Since(t0)
	_, label := req.Cell().Labels()
	s.metrics.simEnd(label, wall.Seconds(), out, err)
	return out, wall, err
}

// errorBound returns the bound a twin-served outcome carries in a response;
// exact outcomes carry none.
func errorBound(out harness.Outcome) *twin.Bounds {
	if out.Engine != harness.EngineTwin {
		return nil
	}
	return &out.Bound
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	var req SimulateRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	run, err := req.resolve()
	if err == nil && req.Trace && req.Engine == harness.EngineTwin {
		// The tracer is attached below, after Resolve has checked the
		// engine: this is the one combination it cannot see.
		err = harness.ErrTwinNeedsRun
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name, label := run.Cell().Labels()
	// A traced run always executes, with the tracer streaming to an
	// artifact; under auto that is an escalation, and the Runner annotates
	// it as one.
	var art *traceArtifact
	if req.Trace {
		var code int
		if art, code, err = s.newTraceArtifact(name, label, req.TraceIntervalCycles); err != nil {
			WriteError(w, code, "%v", err)
			return
		}
		run.Tracer = art.tracer
	}

	ctx, cancel := s.simCtx(r)
	defer cancel()
	out, wall, err := s.run(ctx, run)
	var traceURL string
	if art != nil {
		traceURL, err = s.finishTrace(art, err)
	}
	if err != nil {
		WriteError(w, runErrorStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, SimulateResponse{
		Workload:   name,
		Config:     label,
		Key:        out.Key,
		Cached:     out.Cached,
		WallMS:     wall.Milliseconds(),
		Version:    version.Stamp(),
		Result:     out.Result,
		Trace:      traceURL,
		Engine:     out.Engine,
		Escalated:  out.Escalated,
		ErrorBound: errorBound(out),
	})
}

// defaultTraceInterval is the interval-sampler window (in cycles) used when
// a traced request does not specify one.
const defaultTraceInterval = 1000

// traceArtifact is one traced request's Chrome-trace file being written
// under TraceDir.
type traceArtifact struct {
	id, path string
	file     *os.File
	tracer   *trace.Tracer
}

// newTraceArtifact opens the artifact for a traced run of name under label,
// under a filesystem-safe, per-process-unique id. On failure it returns the
// HTTP status to answer with.
func (s *Server) newTraceArtifact(name, label string, interval int64) (*traceArtifact, int, error) {
	if s.opts.TraceDir == "" {
		return nil, http.StatusBadRequest, errors.New("tracing is disabled: daemon started without a trace directory")
	}
	if err := os.MkdirAll(s.opts.TraceDir, 0o755); err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("trace directory: %v", err)
	}
	clean := func(x string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
				return r
			default:
				return '-'
			}
		}, x)
	}
	id := fmt.Sprintf("%s-%s-%d.json", clean(name), clean(label), s.traceSeq.Add(1))
	path := filepath.Join(s.opts.TraceDir, id)
	f, err := os.Create(path)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("trace artifact: %v", err)
	}
	if interval <= 0 {
		interval = defaultTraceInterval
	}
	return &traceArtifact{id: id, path: path, file: f, tracer: trace.New(trace.NewJSONSink(f), interval)}, 0, nil
}

// finishTrace closes a traced run's artifact and, when the run and the
// write both succeeded, registers it for download and returns its URL. A
// failed run leaves no artifact behind.
func (s *Server) finishTrace(art *traceArtifact, runErr error) (string, error) {
	cerr := art.tracer.Close()
	if err := art.file.Close(); cerr == nil {
		cerr = err
	}
	if runErr == nil && cerr != nil {
		runErr = fmt.Errorf("writing trace: %w", cerr)
	}
	if runErr != nil {
		os.Remove(art.path)
		return "", runErr
	}
	s.traceMu.Lock()
	s.traces[art.id] = art.path
	s.traceMu.Unlock()
	return "/v1/traces/" + art.id, nil
}

// handleTrace serves a trace artifact produced by a traced /v1/simulate.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.traceMu.Lock()
	path, ok := s.traces[id]
	s.traceMu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, "no trace %q", id)
		return
	}
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id))
	http.ServeFile(w, r, path)
}

// SweepRequest is the POST /v1/sweep body: the full cross product of
// (Workloads + Specs) x Configs is simulated (cells fan out across the
// Runner's worker pool and deduplicate against everything else in flight).
type SweepRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	// Specs adds inline declarative workloads to the sweep, each keyed by
	// its canonical content digest like in /v1/simulate.
	Specs     []*workspec.Spec `json:"specs,omitempty"`
	Configs   []string         `json:"configs"`
	LoadStats bool             `json:"loadStats,omitempty"`
	// SMJobs applies per-SM parallelism to every cell of the sweep (see
	// SimulateRequest.SMJobs).
	SMJobs int `json:"sm_jobs,omitempty"`
	// Engine applies an engine choice to every cell. "auto" makes the
	// sweep twin-first: only cells whose error bound exceeds Tolerance
	// occupy the simulator pool.
	Engine string `json:"engine,omitempty"`
	// Tolerance is auto's per-cell escalation threshold (0 = default).
	Tolerance float64 `json:"tolerance,omitempty"`
}

// SweepCell is one (workload, config) summary. Full statistics for any
// cell can be fetched from GET /v1/results/{key}.
type SweepCell struct {
	Workload  string  `json:"workload"`
	Config    string  `json:"config"`
	Key       string  `json:"key,omitempty"`
	Cached    bool    `json:"cached"`
	Cycles    int64   `json:"cycles"`
	IPC       float64 `json:"ipc"`
	L1HitRate float64 `json:"l1HitRate"`
	WallMS    int64   `json:"wallMs"`
	Error     string  `json:"error,omitempty"`
	// Engine reports which engine produced this cell; Escalated marks
	// auto-mode cells that fell back to the simulator, and ErrorBound
	// carries the bound of twin-served cells.
	Engine     string       `json:"engine,omitempty"`
	Escalated  bool         `json:"escalated,omitempty"`
	ErrorBound *twin.Bounds `json:"errorBound,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply, cells in workload-major
// request order.
type SweepResponse struct {
	Cells []SweepCell `json:"cells"`
}

// Cell is one (workload, configuration) element of an expanded sweep
// matrix: a named Table-IV workload or an inline spec, under a named
// configuration. The worker daemon simulates Cells; the cluster
// coordinator shards them across nodes — both expand the same matrix
// through SweepRequest.Cells, so cell granularity, ordering and validation
// are defined exactly once.
type Cell struct {
	// Workload is the named workload; "" when Spec is set.
	Workload string
	// Spec is the inline declarative workload; nil for named workloads.
	Spec *workspec.Spec
	// Config is the named configuration.
	Config string
	// run is the cell's request as SweepRequest.Cells resolved it.
	run harness.Request
}

// cell returns the cell's harness identity: the one Cells resolved, or for
// a Cell built by hand a fresh resolution (zero if the Cell is invalid).
func (c Cell) cell() harness.Cell {
	if c.run.Cell() == (harness.Cell{}) {
		c.run, _ = harness.Resolve(harness.Request{Workload: c.Workload, Spec: c.Spec, Config: c.Config})
	}
	return c.run.Cell()
}

// Name labels the cell's workload axis: the benchmark name, or the spec's
// content-addressed label.
func (c Cell) Name() string { name, _ := c.cell().Labels(); return name }

// ID returns the cell's placement key, harness.Cell.String with the given
// load-stats flag.
func (c Cell) ID(loadStats bool) string {
	id := c.cell()
	id.LoadStats = loadStats
	return id.String()
}

// Cells validates the request and expands its matrix in workload-major
// request order (named workloads, then specs, each crossed with the
// configs), resolving every cell through harness.Resolve. Validation is up
// front and field-precise so a typo fails fast with one 400 instead of
// surfacing mid-sweep — on a worker and on a coordinator alike.
func (req *SweepRequest) Cells() ([]Cell, error) {
	if len(req.Workloads)+len(req.Specs) == 0 || len(req.Configs) == 0 {
		return nil, errors.New("workloads/specs and configs must both be non-empty")
	}
	if req.SMJobs < 0 {
		return nil, fmt.Errorf("sm_jobs must be >= 0, got %d", req.SMJobs)
	}
	if slices.Contains(req.Configs, "") {
		// To harness.Resolve an empty name means an inline configuration.
		return nil, errors.New(`configs: "" names no configuration`)
	}
	for i, sp := range req.Specs {
		if sp == nil {
			return nil, fmt.Errorf("specs[%d] is null", i)
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("specs[%d]: %v", i, err)
		}
	}
	cells := make([]Cell, 0, (len(req.Workloads)+len(req.Specs))*len(req.Configs))
	for _, app := range req.Workloads {
		for _, cfg := range req.Configs {
			cells = append(cells, Cell{Workload: app, Config: cfg})
		}
	}
	for _, sp := range req.Specs {
		for _, cfg := range req.Configs {
			cells = append(cells, Cell{Spec: sp, Config: cfg})
		}
	}
	for i, c := range cells {
		var err error
		cells[i].run, err = harness.Resolve(harness.Request{
			Workload:  c.Workload,
			Spec:      c.Spec,
			Config:    c.Config,
			LoadStats: req.LoadStats,
			EngineReq: harness.EngineReq{Engine: req.Engine, Tolerance: req.Tolerance},
			RunOpts:   harness.RunOpts{SMJobs: req.SMJobs},
		})
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// CellID validates a simulate request as a worker would and returns its
// placement key, consistent with Cell.ID. The cluster coordinator uses it
// to route proxied /v1/simulate requests to the same node the equivalent
// sweep cell lands on.
func (req *SimulateRequest) CellID() (string, error) {
	run, err := req.resolve()
	if err != nil {
		return "", err
	}
	return run.Cell().String(), nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.shed(w) {
		return
	}
	var req SweepRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	ins, err := req.Cells()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := s.simCtx(r)
	defer cancel()
	cells := make([]SweepCell, len(ins))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := &ins[i]
			out, wall, err := s.run(ctx, in.run)
			cells[i] = SweepCell{
				Workload:   in.Name(),
				Config:     in.Config,
				Key:        out.Key,
				Cached:     out.Cached,
				Cycles:     out.Result.Cycles,
				IPC:        out.Result.IPC(),
				L1HitRate:  out.Result.Total.L1HitRate(),
				WallMS:     wall.Milliseconds(),
				Engine:     out.Engine,
				Escalated:  out.Escalated,
				ErrorBound: errorBound(out),
			}
			if err != nil {
				cells[i].Error = err.Error()
			}
		}(i)
	}
	wg.Wait()

	// A whole-sweep timeout is a request failure, not a partial answer.
	if err := ctx.Err(); err != nil {
		WriteError(w, runErrorStatus(err), "sweep aborted: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, SweepResponse{Cells: cells})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !resultstore.ValidKey(key) {
		WriteError(w, http.StatusBadRequest, "malformed key %q: want 64 hex characters", key)
		return
	}
	if s.runner.Store == nil {
		WriteError(w, http.StatusServiceUnavailable, "daemon runs without a result store")
		return
	}
	e, ok := s.runner.Store.Get(key)
	if !ok {
		WriteError(w, http.StatusNotFound, "no result under %s", key)
		return
	}
	WriteJSON(w, http.StatusOK, e)
}

// HealthPool reports the worker pool's instantaneous capacity and backlog.
type HealthPool struct {
	Capacity   int `json:"capacity"`
	Busy       int `json:"busy"`
	QueueDepth int `json:"queueDepth"`
}

// HealthStore reports result-store attachment and reachability.
type HealthStore struct {
	Attached bool `json:"attached"`
	// Reachable is true when the store directory answers a stat; a store
	// on a dead mount flips it false while the daemon keeps serving.
	Reachable bool   `json:"reachable"`
	Dir       string `json:"dir,omitempty"`
}

// HealthResponse is the GET /healthz body: liveness plus the readiness
// signals a load balancer or cluster coordinator routes on. Status is "ok"
// (200) or "draining" (503, between SIGTERM and drain completion).
type HealthResponse struct {
	Status        string      `json:"status"`
	Version       string      `json:"version"`
	UptimeSeconds int64       `json:"uptimeSeconds"`
	Pool          HealthPool  `json:"pool"`
	Store         HealthStore `json:"store"`
	ShedWatermark int         `json:"shedWatermark,omitempty"`
	Draining      bool        `json:"draining,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	capacity, busy, waiting := s.runner.PoolGauges()
	h := HealthResponse{
		Status:        "ok",
		Version:       version.Stamp(),
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Pool:          HealthPool{Capacity: capacity, Busy: busy, QueueDepth: waiting},
		ShedWatermark: s.opts.ShedWatermark,
	}
	if s.runner.Store != nil {
		h.Store.Attached = true
		h.Store.Dir = s.runner.Store.Dir()
		if _, err := os.Stat(h.Store.Dir); err == nil {
			h.Store.Reachable = true
		}
	}
	code := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		h.Draining = true
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

// handleTwinSpeedups serves twin.Model.Speedups: the per-scheduler-variant
// IPC speedup axis (Figure 10) answered analytically in microseconds.
// Query parameters: workload (required), config (optional, default
// "base" — supplies the machine geometry the variants are built from).
func (s *Server) handleTwinSpeedups(w http.ResponseWriter, r *http.Request) {
	app := r.URL.Query().Get("workload")
	if app == "" {
		WriteError(w, http.StatusBadRequest, "missing workload query parameter")
		return
	}
	cfgName := r.URL.Query().Get("config")
	if cfgName == "" {
		cfgName = "base"
	}
	sp, err := s.runner.TwinSpeedups(app, cfgName)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"workload": app,
		"config":   cfgName,
		"engine":   harness.EngineTwin,
		"variants": twin.SchedulerVariants,
		"speedups": sp,
		"version":  version.Stamp(),
	})
}

// handleTwinDRAM serves the twin-predicted DRAM-bandwidth sensitivity
// sweep. Query parameters: workload (required), config (optional, default
// "base"), intervals (optional comma-separated per-partition service
// intervals in cycles, default "1,2,4,8").
func (s *Server) handleTwinDRAM(w http.ResponseWriter, r *http.Request) {
	app := r.URL.Query().Get("workload")
	if app == "" {
		WriteError(w, http.StatusBadRequest, "missing workload query parameter")
		return
	}
	cfgName := r.URL.Query().Get("config")
	if cfgName == "" {
		cfgName = "base"
	}
	spec := r.URL.Query().Get("intervals")
	if spec == "" {
		spec = "1,2,4,8"
	}
	var intervals []int
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			WriteError(w, http.StatusBadRequest, "bad interval %q: want positive integers", part)
			return
		}
		intervals = append(intervals, v)
	}
	points, err := s.runner.TwinDRAMBandwidth(app, cfgName, intervals)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"workload": app,
		"config":   cfgName,
		"engine":   harness.EngineTwin,
		"points":   points,
		"version":  version.Stamp(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var e Exposition
	e.Family("apresd_build_info", "gauge", "Constant 1, labelled with the simulator version stamp.")
	e.Sample(1, "version", version.Stamp())
	s.WriteRequests(&e, "apresd_requests_total")
	s.metrics.render(&e)

	rs := s.runner.Stats()
	e.Counter("apresd_runner_simulations_total", "Simulations actually executed.", rs.Simulations)
	e.Counter("apresd_runner_cache_hits_total", "Runs answered from the in-memory memo.", rs.CacheHits)
	e.Counter("apresd_runner_dedup_waits_total", "Runs that joined an identical in-flight simulation.", rs.DedupWaits)
	e.Counter("apresd_runner_store_hits_total", "Runs answered from the persistent result store.", rs.StoreHits)
	e.Counter("apresd_runner_store_errors_total", "Failed persistent-store writes.", rs.StoreErrors)
	e.Counter("apresd_runner_twin_served_total", "Engine-selected runs answered by the analytical twin.", rs.TwinServed)
	e.Counter("apresd_runner_twin_escalations_total", "Auto-engine runs escalated to the cycle-accurate simulator.", rs.TwinEscalations)
	capacity, busy, waiting := s.runner.PoolGauges()
	e.Gauge("apresd_pool_capacity", "Worker-pool simulation slots.", int64(capacity))
	e.Gauge("apresd_pool_busy", "Slots currently held by running simulations.", int64(busy))
	e.Gauge("apresd_pool_queue_depth", "Callers queued for a free simulation slot.", int64(waiting))
	if s.runner.Store != nil {
		ss := s.runner.Store.Stats()
		e.Counter("apresd_store_memory_hits_total", "Store lookups answered from the LRU front.", ss.MemHits)
		e.Counter("apresd_store_disk_hits_total", "Store lookups answered from disk.", ss.DiskHits)
		e.Counter("apresd_store_misses_total", "Store lookups that found nothing.", ss.Misses)
		e.Counter("apresd_store_puts_total", "Entries written to the store.", ss.Puts)
		e.Counter("apresd_store_corrupt_total", "Unreadable on-disk entries treated as misses.", ss.Corrupt)
	}
	e.WriteTo(w)
}
