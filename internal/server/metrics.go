// Prometheus-text-format metrics without external dependencies: the
// daemon's own counters (requests, in-flight simulations, latency
// histograms) rendered alongside the Runner's and Store's counters at
// scrape time. Output ordering is fully deterministic so tests can assert
// exact lines.
package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"apres/internal/gpu"
)

// latencyBuckets are the per-config simulation latency histogram bounds in
// seconds (a +Inf bucket is implicit).
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// boundBuckets are the twin error-bound histogram bounds (relative IPC
// bound of twin-served responses; a +Inf bucket is implicit).
var boundBuckets = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1}

// histogram is a fixed-bucket cumulative histogram.
type histogram struct {
	buckets []float64
	counts  []int64 // one per bucket, non-cumulative
	sum     float64
	count   int64
}

func newHistogram(buckets []float64) *histogram { return &histogram{buckets: buckets} }

func (h *histogram) observe(v float64) {
	if h.counts == nil {
		h.counts = make([]int64, len(h.buckets))
	}
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
}

// metrics is the daemon's mutable counter set. All fields are guarded by
// mu; rendering takes a consistent snapshot.
type metrics struct {
	mu sync.Mutex
	// requests counts finished HTTP requests by "endpoint code".
	requests map[string]int64
	// inflight gauges requests currently executing simulations.
	inflight int64
	// simLatency histograms simulation wall time by config label.
	simLatency map[string]*histogram
	// engineServed counts answered runs by the engine that produced them.
	engineServed map[string]int64
	// escalations counts auto-engine runs that fell back to the simulator.
	escalations int64
	// shed counts requests rejected 429 by queue-depth admission control.
	shed int64
	// twinBound histograms the relative-IPC error bound of twin-served
	// responses (how tight the served approximations were).
	twinBound *histogram
	// epochCoverage gauges the most recent completed parallel run's epoch
	// coverage (fraction of executed cycles — those not skipped as idle
	// between epochs — inside worker-fanned epochs, the run's Amdahl
	// ceiling) and parallelRuns counts such runs, both by
	// worker count. Serial and cache-served answers carry no engine stats
	// and are not recorded.
	epochCoverage map[int]float64
	parallelRuns  map[int]int64
}

func newMetrics() *metrics {
	return &metrics{
		requests:      make(map[string]int64),
		simLatency:    make(map[string]*histogram),
		engineServed:  make(map[string]int64),
		twinBound:     newHistogram(boundBuckets),
		epochCoverage: make(map[int]float64),
		parallelRuns:  make(map[int]int64),
	}
}

// observeEpochs records a completed parallel-engine run's epoch stats.
// Results without engine stats (serial runs, cache or store hits, twin
// answers) are skipped — the gauge always describes an actual parallel
// execution.
func (m *metrics) observeEpochs(res gpu.Result) {
	es := res.EngineStats
	if es.Epochs == 0 {
		return
	}
	m.mu.Lock()
	m.epochCoverage[es.SMJobs] = es.Coverage(res.Cycles)
	m.parallelRuns[es.SMJobs]++
	m.mu.Unlock()
}

// countEngine records one engine-selected answer: the serving engine, its
// escalation flag, and (for twin-served answers) the IPC error bound.
func (m *metrics) countEngine(engine string, escalated bool, bound float64) {
	m.mu.Lock()
	m.engineServed[engine]++
	if escalated {
		m.escalations++
	}
	if engine == "twin" {
		m.twinBound.observe(bound)
	}
	m.mu.Unlock()
}

// countShed records one request shed by admission control.
func (m *metrics) countShed() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

func (m *metrics) countRequest(endpoint string, code int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s %d", endpoint, code)]++
	m.mu.Unlock()
}

func (m *metrics) simStart() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

func (m *metrics) simEnd(cfgLabel string, seconds float64) {
	m.mu.Lock()
	m.inflight--
	h, ok := m.simLatency[cfgLabel]
	if !ok {
		h = newHistogram(latencyBuckets)
		m.simLatency[cfgLabel] = h
	}
	h.observe(seconds)
	m.mu.Unlock()
}

// render writes the full exposition. extra appends daemon-level gauges
// (runner/store counters) that live outside this struct.
func (m *metrics) render(b *strings.Builder, version string) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(b, "# HELP apresd_build_info Constant 1, labelled with the simulator version stamp.\n")
	fmt.Fprintf(b, "# TYPE apresd_build_info gauge\n")
	fmt.Fprintf(b, "apresd_build_info{version=%q} 1\n", version)

	fmt.Fprintf(b, "# HELP apresd_requests_total Finished HTTP requests by endpoint and status code.\n")
	fmt.Fprintf(b, "# TYPE apresd_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var endpoint string
		var code int
		fmt.Sscanf(k, "%s %d", &endpoint, &code)
		fmt.Fprintf(b, "apresd_requests_total{endpoint=%q,code=\"%d\"} %d\n", endpoint, code, m.requests[k])
	}

	fmt.Fprintf(b, "# HELP apresd_inflight_simulations Requests currently executing simulations.\n")
	fmt.Fprintf(b, "# TYPE apresd_inflight_simulations gauge\n")
	fmt.Fprintf(b, "apresd_inflight_simulations %d\n", m.inflight)

	fmt.Fprintf(b, "# HELP apresd_sim_duration_seconds Simulation wall time by configuration.\n")
	fmt.Fprintf(b, "# TYPE apresd_sim_duration_seconds histogram\n")
	cfgs := make([]string, 0, len(m.simLatency))
	for c := range m.simLatency {
		cfgs = append(cfgs, c)
	}
	sort.Strings(cfgs)
	for _, c := range cfgs {
		h := m.simLatency[c]
		var cum int64
		for i, ub := range h.buckets {
			if h.counts != nil {
				cum += h.counts[i]
			}
			fmt.Fprintf(b, "apresd_sim_duration_seconds_bucket{config=%q,le=\"%g\"} %d\n", c, ub, cum)
		}
		fmt.Fprintf(b, "apresd_sim_duration_seconds_bucket{config=%q,le=\"+Inf\"} %d\n", c, h.count)
		fmt.Fprintf(b, "apresd_sim_duration_seconds_sum{config=%q} %g\n", c, h.sum)
		fmt.Fprintf(b, "apresd_sim_duration_seconds_count{config=%q} %d\n", c, h.count)
	}

	fmt.Fprintf(b, "# HELP apresd_engine_served_total Answered runs by serving engine.\n")
	fmt.Fprintf(b, "# TYPE apresd_engine_served_total counter\n")
	engines := make([]string, 0, len(m.engineServed))
	for e := range m.engineServed {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	for _, e := range engines {
		fmt.Fprintf(b, "apresd_engine_served_total{engine=%q} %d\n", e, m.engineServed[e])
	}

	fmt.Fprintf(b, "# HELP apresd_engine_escalations_total Auto-engine runs escalated to the cycle-accurate simulator.\n")
	fmt.Fprintf(b, "# TYPE apresd_engine_escalations_total counter\n")
	fmt.Fprintf(b, "apresd_engine_escalations_total %d\n", m.escalations)

	fmt.Fprintf(b, "# HELP apresd_shed_total Requests rejected 429 by queue-depth admission control.\n")
	fmt.Fprintf(b, "# TYPE apresd_shed_total counter\n")
	fmt.Fprintf(b, "apresd_shed_total %d\n", m.shed)

	fmt.Fprintf(b, "# HELP apresd_twin_error_bound Relative-IPC error bound of twin-served responses.\n")
	fmt.Fprintf(b, "# TYPE apresd_twin_error_bound histogram\n")
	var cum int64
	for i, ub := range m.twinBound.buckets {
		if m.twinBound.counts != nil {
			cum += m.twinBound.counts[i]
		}
		fmt.Fprintf(b, "apresd_twin_error_bound_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	fmt.Fprintf(b, "apresd_twin_error_bound_bucket{le=\"+Inf\"} %d\n", m.twinBound.count)
	fmt.Fprintf(b, "apresd_twin_error_bound_sum %g\n", m.twinBound.sum)
	fmt.Fprintf(b, "apresd_twin_error_bound_count %d\n", m.twinBound.count)

	jobs := make([]int, 0, len(m.parallelRuns))
	for j := range m.parallelRuns {
		jobs = append(jobs, j)
	}
	sort.Ints(jobs)
	fmt.Fprintf(b, "# HELP apresd_epoch_coverage Epoch coverage (fraction of executed, not idle-skipped, simulated cycles inside parallel epochs) of the most recent parallel run, by worker count.\n")
	fmt.Fprintf(b, "# TYPE apresd_epoch_coverage gauge\n")
	for _, j := range jobs {
		fmt.Fprintf(b, "apresd_epoch_coverage{smjobs=\"%d\"} %g\n", j, m.epochCoverage[j])
	}
	fmt.Fprintf(b, "# HELP apresd_parallel_runs_total Completed parallel-engine runs by worker count.\n")
	fmt.Fprintf(b, "# TYPE apresd_parallel_runs_total counter\n")
	for _, j := range jobs {
		fmt.Fprintf(b, "apresd_parallel_runs_total{smjobs=\"%d\"} %d\n", j, m.parallelRuns[j])
	}
}
