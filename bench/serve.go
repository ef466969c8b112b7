package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apres/internal/config"
	"apres/internal/harness"
	"apres/internal/server"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// reqClass is one kind of request in the serve_mixed traffic mix.
type reqClass uint8

const (
	clsMemo    reqClass = iota // /v1/simulate on a memoised cell
	clsTwin                    // /v1/simulate with engine "twin"
	clsSpec                    // /v1/simulate with an inline spec the daemon has seen
	clsResults                 // GET /v1/results/{key}
	clsSweep                   // a warm 3x3 /v1/sweep
	clsHealth                  // GET /healthz
	clsMetrics                 // GET /metrics
	clsCold                    // /v1/simulate on a configuration no request has used before
	numClasses
)

var className = [numClasses]string{"memo", "twin", "spec", "results", "sweep", "health", "metrics", "cold"}

// classPerMille is the traffic mix in parts per thousand. The cold trickle
// is the only traffic that reaches the engine; it also makes the store take
// writes beside the reads.
var classPerMille = [numClasses]int{400, 200, 100, 100, 50, 73, 73, 4}

// The cold class simulates one application under the baseline with a DRAM
// latency no earlier request used: compute-bound SP, whose simulation time
// barely depends on that latency, so cold latencies of one run are alike.
const coldApp = "SP"

// twinConfigs are the configurations of the twin class. They lie outside the
// warmed matrix on purpose: the daemon answers a twin request from the store
// when it holds an exact entry for the cell, and that is the memo class.
var twinConfigs = []string{"gto", "laws", "mascar"}

// prepared is a request built during set-up, so that sending costs the
// generator as little as possible.
type prepared struct {
	method string
	path   string
	body   []byte
	want   []byte // the normalised first body; nil when bodies are not compared
}

// planned is one arrival of the open-loop schedule.
type planned struct {
	seq   int64
	due   time.Duration // from the start of the schedule
	step  int
	class reqClass
	pick  int // which prepared request of the class; for cold, the k in DRAMLatency 440+k
}

// step is one fixed-rate part of the schedule.
type step struct {
	rate       int
	start, end time.Duration
}

// stepGap lets the daemon drain between steps: a fiftieth of the schedule, at
// most 200 ms.
func stepGap(budget time.Duration) time.Duration {
	return min(budget/50, 200*time.Millisecond)
}

// buildSchedule draws seeded Poisson arrivals for each rate. The step the
// end-to-end latencies come from gets twice the time of the others, and the
// whole schedule takes budget. picks[c] is how many prepared requests class c
// has; cold requests are numbered from coldFrom+1, and a number is never
// reused within a run. The same seed gives the same schedule byte for byte.
func buildSchedule(seed int64, rates []int, sloStep int, budget time.Duration, picks [numClasses]int, coldFrom int) ([]planned, []step) {
	rng := rand.New(rand.NewSource(seed))
	gap := stepGap(budget)
	measuring := budget - time.Duration(len(rates)-1)*gap
	share := measuring / time.Duration(len(rates)+1)
	var plan []planned
	var steps []step
	var at time.Duration
	colds := coldFrom
	for si, rate := range rates {
		length := share
		if si == sloStep {
			length = 2 * share
		}
		st := step{rate: rate, start: at, end: at + length}
		first := len(plan)
		for t := st.start; ; {
			t += time.Duration(rng.ExpFloat64() / float64(rate) * float64(time.Second))
			if t >= st.end {
				break
			}
			p := planned{due: t, step: si}
			n := rng.Intn(1000 - classPerMille[clsCold])
			for c := reqClass(0); c < clsCold; c++ {
				if n < classPerMille[c] {
					p.class = c
					break
				}
				n -= classPerMille[c]
			}
			p.pick = rng.Intn(max(picks[p.class], 1))
			plan = append(plan, p)
		}
		// The cold class is placed, not drawn: every coldEvery-th arrival of
		// the step, from a seeded offset. A run then has the same number of
		// cold requests whatever its seed, none of them overlapping, so the
		// tail latency they cause is comparable between runs. A step shorter
		// than coldEvery arrivals still gets one.
		coldEvery := 1000 / classPerMille[clsCold]
		offset := rng.Intn(coldEvery)
		if n := len(plan) - first; n > 0 && offset >= n {
			offset = n / 2
		}
		for i := first + offset; i < len(plan); i += coldEvery {
			colds++
			plan[i].class, plan[i].pick = clsCold, colds
		}
		steps = append(steps, st)
		at = st.end + gap
	}
	for i := range plan {
		plan[i].seq = int64(i + 1)
	}
	return plan, steps
}

// scheduleDigest hashes the schedule, to show that a seed reproduces it.
func scheduleDigest(plan []planned) string {
	h := sha256.New()
	for _, p := range plan {
		binary.Write(h, binary.LittleEndian, [4]int64{p.seq, int64(p.due), int64(p.class), int64(p.pick)})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// daemon is an in-process apresd: a Runner at the serving scale with one
// simulation slot and a store, behind server.New on a loopback listener.
type daemon struct {
	runner *harness.Runner
	url    string
	hs     *http.Server
	done   chan error
	client *http.Client
	reqs   [numClasses][]prepared

	// Traced runs only: the middleware's handler spans by X-Bench-Req, kept
	// while tracing is on.
	tracing  atomic.Bool
	mu       sync.Mutex
	handlers map[int64]handlerSpan
}

type handlerSpan struct {
	start time.Time
	dur   time.Duration
}

const benchReqHeader = "X-Bench-Req"

// serveOn starts an http.Server for h on a fresh loopback port.
func serveOn(h http.Handler) (*http.Server, string, chan error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	return hs, "http://" + l.Addr().String(), done, nil
}

// shutdown stops a server started by serveOn and waits until it has ended.
// Its clients have finished by then, so it closes at once: a graceful
// Shutdown polls for idle connections with a growing interval, which would
// add up to 0.1 s of noise to whatever is timed around it.
func shutdown(hs *http.Server, done chan error) {
	_ = hs.Close() // the error is that of the listener already being closed
	<-done
}

func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	shutdown(d.hs, d.done)
}

// timed wraps the daemon's handler with the benchmark's middleware: one
// server.handler span per request, keyed by the request's sequence number.
func (d *daemon) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !d.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		dur := time.Since(t0)
		if seq, err := strconv.ParseInt(r.Header.Get(benchReqHeader), 10, 64); err == nil {
			d.mu.Lock()
			d.handlers[seq] = handlerSpan{t0, dur}
			d.mu.Unlock()
		}
	})
}

// do sends one prepared request and returns the status and body.
func (d *daemon) do(p prepared, seq int64, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if p.body != nil {
		body = bytes.NewReader(p.body)
	}
	req, err := http.NewRequest(p.method, d.url+p.path, body)
	if err != nil {
		return 0, err
	}
	if p.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(benchReqHeader, strconv.FormatInt(seq, 10))
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// normalise blanks the two fields of a response that legitimately differ
// between two answers to one question: the wall time and the cached flag.
// The result is appended to dst[:0], so a sender reuses one buffer.
func normalise(dst, b []byte) []byte {
	out := dst[:0]
	for {
		i := bytes.Index(b, []byte(`"wallMs": `))
		j := bytes.Index(b, []byte(`"cached": `))
		switch {
		case i < 0 && j < 0:
			return append(out, b...)
		case j < 0 || (i >= 0 && i < j):
			i += len(`"wallMs": `)
			out = append(append(out, b[:i]...), '0')
			b = b[i:]
			for len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
				b = b[1:]
			}
		default:
			j += len(`"cached": `)
			out = append(append(out, b[:j]...), "false"...)
			b = b[j:]
			for len(b) > 0 && b[0] >= 'a' && b[0] <= 'z' {
				b = b[1:]
			}
		}
	}
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request structs always marshal
	}
	return b
}

// startDaemon builds the daemon, warms its memo and store with the golden
// matrix, and prepares every request of the mix together with the body each
// should return.
func startDaemon(e *env, seed int64) (*daemon, error) {
	dir, err := e.dir("serve-store")
	if err != nil {
		return nil, err
	}
	apps := harness.AllApps()
	golden := matrix(apps, fig10Configs)

	// The matrix is simulated by a Runner that uses every hardware thread and
	// shares the store directory; the daemon's own Runner (one slot, like a
	// small apresd) then loads it from the store into its memo.
	warm, err := newRunner(e.size.serveScale, e.size.sms, nproc(), dir)
	if err != nil {
		return nil, err
	}
	if _, err := runMatrix(e, nil, warm, golden, inOrder(len(golden)), nproc()); err != nil {
		return nil, err
	}
	runner, err := newRunner(e.size.serveScale, e.size.sms, 1, dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{runner: runner, handlers: make(map[int64]handlerSpan)}
	var h http.Handler = server.New(server.Options{Runner: runner})
	if e.traced() {
		h = d.timed(h)
	}
	if d.hs, d.url, d.done, err = serveOn(h); err != nil {
		return nil, err
	}
	d.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: serveConnections, MaxIdleConnsPerHost: serveConnections, DisableCompression: true},
	}

	// first sends a prepared request once during set-up: it warms whatever
	// cache the class relies on and yields the body later answers must equal.
	var buf bytes.Buffer
	first := func(p *prepared, compare bool) error {
		code, err := d.do(*p, 0, &buf)
		e.op(err == nil && code == http.StatusOK)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", p.method, p.path, code, bytes.TrimSpace(buf.Bytes()))
		}
		if compare {
			p.want = normalise(nil, buf.Bytes())
		}
		return nil
	}
	add := func(c reqClass, p prepared, compare bool) error {
		if err := first(&p, compare); err != nil {
			return fmt.Errorf("preparing %s request: %w", className[c], err)
		}
		d.reqs[c] = append(d.reqs[c], p)
		return nil
	}

	sweep := server.SweepRequest{Workloads: apps, Configs: fig10Configs}
	warmSweep := prepared{method: "POST", path: "/v1/sweep", body: jsonBody(sweep)}
	if err := first(&warmSweep, false); err != nil {
		return nil, fmt.Errorf("warming the daemon: %w", err)
	}
	for _, c := range golden {
		sim := prepared{method: "POST", path: "/v1/simulate", body: jsonBody(server.SimulateRequest{Workload: c.app, Config: c.cfg})}
		if err := add(clsMemo, sim, true); err != nil {
			return nil, err
		}
		var resp server.SimulateResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			return nil, err
		}
		if err := add(clsResults, prepared{method: "GET", path: "/v1/results/" + resp.Key}, true); err != nil {
			return nil, err
		}
	}
	for _, cfg := range twinConfigs {
		for _, app := range apps {
			body := jsonBody(server.SimulateRequest{Workload: app, Config: cfg, Engine: harness.EngineTwin})
			if err := add(clsTwin, prepared{method: "POST", path: "/v1/simulate", body: body}, false); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, app := range simApps {
		w, _ := workloads.ByName(app)
		spec, err := workspec.FromWorkload(w)
		if err != nil {
			return nil, err
		}
		// The spec file's JSON, re-indented by the seed: the daemon must key
		// it by its canonical digest, not by its bytes.
		var indented bytes.Buffer
		if err := json.Indent(&indented, spec.Encode(), "", "         "[:1+rng.Intn(8)]); err != nil {
			return nil, err
		}
		body := fmt.Sprintf(`{"config": "base", "spec": %s}`, indented.Bytes())
		if err := add(clsSpec, prepared{method: "POST", path: "/v1/simulate", body: []byte(body)}, true); err != nil {
			return nil, err
		}
	}
	for i := 0; i+3 <= len(apps); i += 3 {
		body := jsonBody(server.SweepRequest{Workloads: apps[i : i+3], Configs: fig10Configs})
		if err := add(clsSweep, prepared{method: "POST", path: "/v1/sweep", body: body}, true); err != nil {
			return nil, err
		}
	}
	if err := add(clsHealth, prepared{method: "GET", path: "/healthz"}, false); err != nil {
		return nil, err
	}
	if err := add(clsMetrics, prepared{method: "GET", path: "/metrics"}, false); err != nil {
		return nil, err
	}
	return d, nil
}

// coldRequest is the k-th cold request: the baseline with a DRAM latency of
// 440+k cycles, inline, which no earlier request of the run has used.
func coldRequest(k int) prepared {
	cfg := config.Baseline()
	cfg.DRAMLatency += k
	return prepared{method: "POST", path: "/v1/simulate", body: jsonBody(server.SimulateRequest{Workload: coldApp, ConfigInline: &cfg})}
}

// sample is what the generator records for one request.
type sample struct {
	p       planned
	spanID  int64
	sent    time.Time
	late    time.Duration // how long after its due time the request was sent
	latency time.Duration // from the due time to the last byte of the answer
	service time.Duration // from the send to the last byte of the answer
	status  int
	bytes   int
	ok      bool
	insts   int64 // cold class: what the simulation executed
	cycles  int64
}

// serveConnections is how many keep-alive connections (and sender
// goroutines) the generator uses. Arrivals are independent users, so the loop
// is open: a sender blocks on its request in flight, and with too few of them
// a slow answer would delay the sends behind it, which is the generator's
// lateness and not the daemon's latency. Sixteen is enough that, below
// saturation, no arrival waits for a free sender; a blocked sender costs no
// CPU, so the hardware threads stay with the daemon.
const serveConnections = 16

// generate plays the schedule against the daemon: an open loop, latency
// counted from each request's due time.
func generate(e *env, spans *spanLog, d *daemon, plan []planned) []sample {
	var claimed atomic.Int64
	next := func() (planned, bool) {
		i := claimed.Add(1) - 1
		if i >= int64(len(plan)) {
			return planned{}, false
		}
		return plan[i], true
	}

	senders := serveConnections
	out := make([][]sample, senders)
	var wg sync.WaitGroup
	t0 := time.Now().Add(50 * time.Millisecond)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var buf bytes.Buffer
			var scratch []byte // the normalised body, reused between requests
			for {
				p, ok := next()
				if !ok {
					return
				}
				due := t0.Add(p.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				var req prepared
				if p.class == clsCold {
					req = coldRequest(p.pick)
				} else {
					req = d.reqs[p.class][p.pick]
				}
				sm := sample{p: p, sent: time.Now()}
				code, err := d.do(req, p.seq, &buf)
				done := time.Now()
				sm.late, sm.latency, sm.service = sm.sent.Sub(due), done.Sub(due), done.Sub(sm.sent)
				sm.status, sm.bytes = code, buf.Len()
				sm.ok = err == nil && code == http.StatusOK && checkBody(e, p, req, buf.Bytes(), &scratch, &sm)
				e.op(sm.ok)
				sm.spanID = spans.record("client.request", 0, p.seq, className[p.class], sm.sent, sm.service)
				out[s] = append(out[s], sm)
			}
		}(s)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// checkBody is the output check of one answer.
func checkBody(e *env, p planned, req prepared, body []byte, scratch *[]byte, sm *sample) bool {
	switch p.class {
	case clsMemo, clsSpec, clsResults, clsSweep:
		*scratch = normalise(*scratch, body)
		return e.checkf(bytes.Equal(*scratch, req.want), "%s request %d: the body differs from the first answer to the same question", className[p.class], p.seq)
	case clsTwin:
		return e.checkf(bytes.Contains(body, []byte(`"errorBound"`)), "twin request %d: the answer carries no errorBound", p.seq)
	case clsCold:
		var resp server.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return e.checkf(false, "cold request %d: %v", p.seq, err)
		}
		sm.insts, sm.cycles = resp.Result.Total.Instructions, resp.Result.Cycles
		return e.checkf(!resp.Cached && resp.Result.Cycles > 0, "cold request %d: cached=%v cycles=%d", p.seq, resp.Cached, resp.Result.Cycles)
	}
	return true
}

// stepStats summarises one step of the schedule.
type stepStats struct {
	warmMS  []float64 // latency of the non-cold requests, from their due times
	serveMS []float64 // the same requests from send to last byte
	coldMS  []float64
	lateMS  []float64 // in due order
	backlog bool      // the step ended with the generator behind its schedule
	p50     float64   // of warmMS
	served  float64   // median of serveMS
	tail    float64
	tailP   float64
}

func summarise(samples []sample, steps []step) []stepStats {
	sort.Slice(samples, func(i, j int) bool { return samples[i].p.seq < samples[j].p.seq })
	st := make([]stepStats, len(steps))
	for _, s := range samples {
		x := &st[s.p.step]
		if s.p.class == clsCold {
			x.coldMS = append(x.coldMS, ms(s.latency))
			continue
		}
		x.warmMS = append(x.warmMS, ms(s.latency))
		x.serveMS = append(x.serveMS, ms(s.service))
		x.lateMS = append(x.lateMS, ms(s.late))
	}
	for i := range st {
		// A queue that is still growing when the step's time is up shows as
		// the step's last sends leaving late by more than the latency limit.
		if n := len(st[i].lateMS); n > 0 {
			st[i].backlog = median(st[i].lateMS[max(0, n-backlogWindow):]) > sloLimitMS
		}
		st[i].p50 = median(st[i].warmMS)
		st[i].served = median(st[i].serveMS)
		st[i].tailP = tailPercentile(len(st[i].warmMS))
		st[i].tail = percentile(st[i].warmMS, st[i].tailP)
	}
	return st
}

// backlogWindow is how many of a step's last sends its backlog is judged by.
const backlogWindow = 20

// coldProbes is how many cold requests cold_s is the median of.
const coldProbes = 10

// refStep is the index of the rate the end-to-end latencies come from (500
// req/s at the reference size): well below saturation, with enough requests
// for a p99.
const refStep = 1

// sloLimitMS is the latency limit on the tail percentile that
// server.slo_rate_rps is judged by.
const sloLimitMS = 10

// maxLateP50MS is the generator validity guard: at the reference step the
// typical request must leave on time. (The p99 is reported as
// bench.late_p99_ms but not judged: generator and daemon share the host's
// hardware threads, so while a cold request simulates on one of them the
// senders queue for the other, and that wait is the system's, not a fault of
// the schedule.)
const maxLateP50MS = 1

// runServe is serve_mixed.
func runServe(e *env) error {
	e.under = nproc() < 2
	var d *daemon
	err := e.timeSetup(func() error {
		var err error
		d, err = startDaemon(e, e.opt.seed)
		return err
	}, func() { d.stop() })
	if err != nil {
		return err
	}
	defer d.stop()

	var picks [numClasses]int
	for c := range d.reqs {
		picks[c] = len(d.reqs[c])
	}
	// cold_s: cold requests one at a time to the otherwise idle daemon (a
	// closed loop of one caller) before the traffic starts. Under traffic a
	// cold request also waits for the hardware thread it shares with it; that
	// wait is printed per step and traced as server.handler_cold_ms, but it
	// varies by 0.1 of its median from run to run, too much to gate on.
	var coldMS []float64
	var insts, cycles int64
	var buf bytes.Buffer
	for k := 1; k <= coldProbes; k++ {
		p := planned{seq: int64(-k), class: clsCold, pick: k}
		req := coldRequest(k)
		var sm sample
		t0 := time.Now()
		code, err := d.do(req, p.seq, &buf)
		coldMS = append(coldMS, ms(time.Since(t0)))
		e.op(err == nil && code == http.StatusOK && checkBody(e, p, req, buf.Bytes(), nil, &sm))
		insts += sm.insts
		cycles += sm.cycles
	}
	cold := median(coldMS) / 1e3
	e.set("cold_s", cold, len(coldMS))
	if cold > 0 {
		e.set("sim_mwinst_per_s", float64(insts)/coldProbes/1e6/cold, len(coldMS))
		e.set("sim_mcycles_per_s", float64(cycles)/coldProbes/1e6/cold, len(coldMS))
	}

	plan, steps := buildSchedule(e.opt.seed, e.size.rates, refStep, e.budget, picks, coldProbes)
	e.note("schedule_digest", scheduleDigest(plan))
	e.note("schedule_requests", strconv.Itoa(len(plan)))

	untracedP50 := 0.0
	if e.traced() {
		// A short stretch at the reference rate with the middleware and the
		// client spans off: what the traced latencies are compared with.
		pre, preSteps := buildSchedule(e.opt.seed+1, e.size.rates[refStep:refStep+1], 0, e.budget/5, picks, coldProbes+len(plan))
		samples := generate(e, nil, d, pre)
		untracedP50 = summarise(samples, preSteps)[0].served
		d.tracing.Store(true)
	}
	samples := generate(e, e.spans, d, plan)
	d.tracing.Store(false)
	stats := summarise(samples, steps)

	// The serving latencies come from one fixed rate well below saturation.
	slo := stats[refStep]
	// The median is taken from send to last byte. Below saturation nothing
	// queues, so the due-time latency (printed per step) differs from it only
	// by the generator's own lateness: Go wakes a sleeping sender with
	// millisecond granularity, about 0.5 ms late at the median, which is more
	// than the daemon takes to answer. The tail, where queueing shows, counts
	// from the due time.
	e.set("repeat_p50_ms", slo.served, len(slo.serveMS))
	e.set("server.tail_ms", slo.tail, len(slo.warmMS))

	sloRate := 0
	for i, st := range stats {
		e.note(fmt.Sprintf("step_%d", steps[i].rate), fmt.Sprintf("n=%d served_p50=%.3fms p50=%.3fms p%g=%.3fms cold_n=%d cold_p50=%.1fms late_p99=%.3fms backlog=%v",
			len(st.warmMS), st.served, st.p50, 100*st.tailP, st.tail, len(st.coldMS), median(st.coldMS), percentile(st.lateMS, 0.99), st.backlog))
		if st.tail <= sloLimitMS && !st.backlog && steps[i].rate > sloRate {
			sloRate = steps[i].rate
		}
	}
	lateP99 := percentile(slo.lateMS, 0.99)
	e.set("bench.late_p99_ms", lateP99, len(slo.lateMS))
	e.set("server.slo_rate_rps", float64(sloRate), len(steps))
	if !e.under {
		lateP50 := median(slo.lateMS)
		e.checkf(lateP50 <= maxLateP50MS, "invalid run: the generator sent %.3f ms late (median) at %d req/s; limit %d ms", lateP50, steps[refStep].rate, maxLateP50MS)
		for i, st := range stats {
			e.checkf(!st.backlog || steps[i].rate > sloRate, "invalid run: the generator was behind its schedule at the end of the %d req/s step", steps[i].rate)
		}
	}
	shed := 0
	for _, s := range samples {
		if s.status == http.StatusTooManyRequests {
			shed++
		}
	}
	e.set("server.shed", float64(shed), len(samples))

	if e.traced() {
		if untracedP50 > 0 {
			e.set("bench.trace_overhead_ratio", slo.served/untracedP50, len(slo.serveMS))
		}
		return traceServe(e, d, samples)
	}
	return nil
}
