// Command bench is apresbench: the one named benchmark for the engine, the
// paper suite, the daemon and the cluster. Each workload runs in its own
// process:
//
//	go run ./bench -workload sim_serial -seed 1 -seconds 10 -trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) repeats the workload with spans and timers placed in this
// package around calls into each layer's exported functions, writes the spans
// to trace.json and prints the per-layer metrics. Every run checks that the
// outputs are correct and ends with one JSON line holding correct, attempted,
// failed and metrics; the exit code is non-zero if a check failed. README.md
// in this directory defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*env) error
}

var allWorkloads = []workload{
	{"sim_serial", "12 cold gpu.Simulate cells on the default serial engine: only the engine layers do work", func(e *env) error { return runSim(e, 1) }},
	{"sim_smjobs2", "the same cells with WithParallelSMs(2): epochs, barriers and dram fill mirrors do work here only", func(e *env) error { return runSim(e, 2) }},
	{"paper_fig10", "the 45-cell Figure-10 matrix through harness.Runner with a store: pool, singleflight, memo, store, CCWS path", runPaper},
	{"serve_mixed", "open-loop mixed traffic against an in-process warm daemon: server, harness memo, twin, workspec and store reads, little engine", runServe},
	{"cluster_sweep", "a 12-cell sweep through a coordinator over two workers: the only workload with cluster on the path", runCluster},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	all      bool
	smoke    bool
	compare  bool
	out      string
	traceOut string
	workRoot string
}

// sizing scales a workload. The reference size is what BENCHMARK.json
// measures; the smoke size runs the same code in a fraction of a second for
// the tests.
type sizing struct {
	scale      float64       // kernel scale of sim_*, paper_fig10, cluster_sweep
	serveScale float64       // kernel scale of the daemon in serve_mixed
	sms        int           // SM count override; 0 keeps the paper's 15
	rates      []int         // serve_mixed: req/s of each step
	warmSweeps int           // cluster_sweep: least number of warm sweeps
	setups     int           // how many times set-up runs; the median is reported
	rampUp     time.Duration // how long spinUp keeps the host busy before the first set-up
}

var (
	referenceSize = sizing{scale: 1, serveScale: 0.25, rates: []int{250, 500, 1000, 2000}, warmSweeps: 50, setups: 3, rampUp: 1500 * time.Millisecond}
	smokeSize     = sizing{scale: 0.05, serveScale: 0.05, sms: 2, rates: []int{100, 200}, warmSweeps: 5, setups: 1}
)

// warmScale is the kernel scale of the warm-ups that set-up runs.
const warmScale = 0.05

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports; -out writes it and -compare reads it.
type result struct {
	Workload        string                 `json:"workload"`
	Seed            int64                  `json:"seed"`
	Seconds         float64                `json:"seconds"`
	Traced          bool                   `json:"traced"`
	Host            host                   `json:"host"`
	Undersubscribed bool                   `json:"undersubscribed,omitempty"`
	Correct         bool                   `json:"correct"`
	Attempted       int64                  `json:"attempted"`
	Succeeded       int64                  `json:"succeeded"`
	Failed          int64                  `json:"failed"`
	Metrics         map[string]metricValue `json:"metrics"`
	Samples         map[string]int         `json:"samples"`
	Info            map[string]string      `json:"info,omitempty"`
	CheckFailures   []string               `json:"checkFailures,omitempty"`
}

// env is the state of one workload run.
type env struct {
	opt     options
	size    sizing
	rng     *rand.Rand
	spans   *spanLog // nil on an untraced run
	workdir string
	budget  time.Duration

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	metrics  map[string]float64
	samples  map[string]int
	info     map[string]string
	failures []string
	under    bool
}

func (e *env) traced() bool { return e.spans != nil }

// set records a metric value and the number of samples behind it.
func (e *env) set(name string, v float64, n int) {
	e.mu.Lock()
	e.metrics[name] = v
	e.samples[name] = n
	e.mu.Unlock()
}

func (e *env) note(key, value string) {
	e.mu.Lock()
	e.info[key] = value
	e.mu.Unlock()
}

// op counts one attempted operation; it fails on an error, a refusal, a
// timeout or a failed output check.
func (e *env) op(ok bool) {
	e.attempted.Add(1)
	if !ok {
		e.failed.Add(1)
	}
}

// checkf records a failed output check; the run then reports correct=false
// and exits non-zero.
func (e *env) checkf(ok bool, format string, args ...any) bool {
	if !ok {
		e.mu.Lock()
		if len(e.failures) < 20 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
		e.mu.Unlock()
	}
	return ok
}

// timeSetup ramps the host up, then runs the workload's set-up size.setups
// times and records the median as setup_s; what the last call built is what the measurement uses.
// teardown, when non-nil, releases what a superseded set-up built.
func (e *env) timeSetup(setup func() error, teardown func()) error {
	spinUp(e.size.rampUp)
	var took []float64
	for i := 0; i < e.size.setups; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	e.set("setup_s", median(took), len(took))
	return nil
}

// spinUp keeps every hardware thread busy for d before anything is timed. On the reference host a process that starts after a few idle seconds
// runs its first 1.3 s of two-thread work 1.6 times slower than the rest (the
// virtual CPUs ramp up); without this, the short phases at the start of a run
// (set-up, the first pass) would measure how long the host had been idle.
func spinUp(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < nproc(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<16; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Store(x)
		}()
	}
	wg.Wait()
}

// spinSink keeps spinUp's arithmetic alive.
var spinSink atomic.Uint64

// dir makes a fresh directory under the run's work directory.
func (e *env) dir(prefix string) (string, error) {
	return os.MkdirTemp(e.workdir, prefix+"-*")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apresbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: sim_serial, sim_smjobs2, paper_fig10, serve_mixed, cluster_sweep")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's generated inputs (cell order, arrival schedule, request mix)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 repeats the workload with spans, writes trace.json and prints the per-layer metrics")
	fs.BoolVar(&o.all, "all", false, "run the five workloads in sequence, each in its own process")
	fs.BoolVar(&o.smoke, "smoke", false, "run all five workloads, untraced and traced, at a tiny size in this process")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files written with -out: -compare a.json b.json")
	fs.StringVar(&o.out, "out", "", "also write the full result (host fingerprint, sample counts, digests) to this file")
	fs.StringVar(&o.traceOut, "trace-out", "trace.json", "where a traced run writes its spans")
	fs.StringVar(&o.workRoot, "workdir", ".apresbench", "directory for result stores and other scratch files; removed at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "apresbench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.smoke:
		return runSmoke(o, stdout, stderr)
	case o.all:
		return runAll(o, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "apresbench: unknown workload %q; have", o.workload)
		for _, w := range allWorkloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	res, err := runWorkload(w, o, referenceSize)
	if err != nil {
		fmt.Fprintf(stderr, "apresbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(res, o, stdout); err != nil {
		fmt.Fprintf(stderr, "apresbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload at the given size and assembles its result.
func runWorkload(w workload, o options, size sizing) (*result, error) {
	if err := os.MkdirAll(o.workRoot, 0o755); err != nil {
		return nil, err
	}
	workdir, err := os.MkdirTemp(o.workRoot, w.name+"-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(workdir)
		os.Remove(o.workRoot) // succeeds only if no other run's directory is left in it
	}()

	e := &env{
		opt:     o,
		size:    size,
		rng:     rand.New(rand.NewSource(o.seed)),
		workdir: workdir,
		budget:  time.Duration(o.seconds * float64(time.Second)),
		metrics: make(map[string]float64),
		samples: make(map[string]int),
		info:    make(map[string]string),
	}
	if o.trace != 0 {
		e.spans = newSpanLog()
	}
	if err := w.run(e); err != nil {
		return nil, err
	}
	e.set("bench.peak_rss_mb", peakRSSMB(), 1)
	attempted, failed := e.attempted.Load(), e.failed.Load()
	if attempted > 0 {
		e.set("bench.fail_ratio", float64(failed)/float64(attempted), int(attempted))
	}

	defs := endToEnd
	if e.traced() {
		defs = perLayer
	}
	res := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: e.traced(),
		Host: fingerprint(), Undersubscribed: e.under,
		Attempted: attempted, Succeeded: attempted - failed, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
		Samples: make(map[string]int, len(defs)),
		Info:    e.info,
	}
	for _, d := range defs {
		v, ok := e.metrics[d.Name]
		// Every workload reports every end-to-end metric; a per-layer metric
		// of a layer the workload does not exercise reads 0.
		e.checkf(ok || e.traced(), "end-to-end metric %s was not measured", d.Name)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		res.Samples[d.Name] = e.samples[d.Name]
	}
	e.checkf(attempted > 0, "no operation was attempted")
	e.checkf(failed == 0, "%d of %d operations failed", failed, attempted)
	res.CheckFailures = e.failures
	res.Correct = len(e.failures) == 0

	if e.traced() {
		tf := traceFile{Workload: w.name, Seed: o.seed, Host: res.Host, Spans: e.spans.snapshot()}
		if err := writeTrace(o.traceOut, tf); err != nil {
			return nil, fmt.Errorf("writing %s: %w", o.traceOut, err)
		}
	}
	return res, nil
}

// report prints the result for people, writes -out, and ends with the one
// JSON line the driver reads.
func report(res *result, o options, w io.Writer) error {
	fmt.Fprintf(w, "apresbench workload=%s seed=%d seconds=%g trace=%d\n", res.Workload, res.Seed, res.Seconds, o.trace)
	h := res.Host
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d cpu=%q go=%s version=%s\n", h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Version)
	if res.Undersubscribed {
		fmt.Fprintln(w, "undersubscribed: fewer hardware threads than the workload's workers; host-time metrics are not comparable")
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%s\n", k, res.Info[k])
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		if res.Traced && m.Value == 0 && res.Samples[d.Name] == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(w, "metric %-32s %14s %-10s n=%d\n", d.Name, fmtMetric(m.Value), m.Unit, res.Samples[d.Name])
	}
	fmt.Fprintf(w, "ops attempted=%d succeeded=%d failed=%d\n", res.Attempted, res.Succeeded, res.Failed)
	for _, f := range res.CheckFailures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// runAll runs the five workloads in sequence, each in a process of its own so
// that peak_rss_mb and the heap state belong to one workload.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "apresbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range allWorkloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-workdir", o.workRoot, "-trace-out", perWorkload(o.traceOut, w.name)}
		if o.out != "" {
			args = append(args, "-out", perWorkload(o.out, w.name))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "apresbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// perWorkload turns "trace.json" into "trace.sim_serial.json".
func perWorkload(path, name string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + name + ext
}

// runSmoke runs every workload untraced and traced at the smoke size, in
// this process, with all output checks. The tests use it.
func runSmoke(o options, stdout, stderr io.Writer) int {
	o.seconds = 0.5
	code := 0
	for _, w := range allWorkloads {
		for _, tr := range []int{0, 1} {
			o.trace = tr
			o.traceOut = filepath.Join(o.workRoot, "trace."+w.name+".json")
			res, err := runWorkload(w, o, smokeSize)
			os.Remove(o.traceOut)
			os.Remove(o.workRoot)
			if err != nil {
				fmt.Fprintf(stderr, "apresbench: smoke %s trace=%d: %v\n", w.name, tr, err)
				code = 1
				continue
			}
			fmt.Fprintf(stdout, "smoke %-14s trace=%d correct=%v attempted=%d failed=%d\n", w.name, tr, res.Correct, res.Attempted, res.Failed)
			for _, f := range res.CheckFailures {
				fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", f)
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// nproc is the number of hardware threads the benchmark sizes its callers
// and connections by.
func nproc() int { return runtime.NumCPU() }
