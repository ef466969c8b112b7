// Prometheus-text-format metrics without external dependencies: the
// daemon's own counters (requests, in-flight simulations, latency
// histograms) rendered alongside the Runner's and Store's counters at
// scrape time. Output ordering is fully deterministic so tests can assert
// exact lines.
package server

import (
	"strconv"
	"sync"
	"sync/atomic"

	"apres/internal/harness"
)

// latencyBuckets are the per-config simulation latency histogram bounds in
// seconds (a +Inf bucket is implicit).
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// boundBuckets are the twin error-bound histogram bounds (relative IPC
// bound of twin-served responses; a +Inf bucket is implicit).
var boundBuckets = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1}

// maxConfigLabels caps the latency histogram's config labels: each inline
// configuration brings its own, so past this many, new ones share "other".
const maxConfigLabels = 64

// metrics is the daemon's mutable counter set. The two atomics stand
// alone; every other field is guarded by mu, and rendering takes a
// consistent snapshot of those.
type metrics struct {
	// inflight gauges requests currently executing simulations.
	inflight atomic.Int64
	// shed counts requests rejected 429 by queue-depth admission control.
	shed atomic.Int64

	mu sync.Mutex
	// simLatency histograms simulation wall time by config label, at most
	// maxConfigLabels of them plus "other".
	simLatency map[string]*Histogram
	// engineServed counts answered runs by the engine that produced them.
	engineServed map[string]int64
	// escalations counts auto-engine runs that fell back to the simulator.
	escalations int64
	// twinBound histograms the relative-IPC error bound of twin-served
	// responses (how tight the served approximations were).
	twinBound *Histogram
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
		simLatency:    make(map[string]*Histogram),
		engineServed:  make(map[string]int64),
		twinBound:     NewHistogram(boundBuckets),
		epochCoverage: make(map[int]float64),
		parallelRuns:  make(map[int]int64),
	}
}

// simEnd records one finished run: its wall time under the configuration
// label (or "other" once the label set is full) and, when it was answered, the engine that served it, its escalation
// flag, a twin answer's IPC error bound and a parallel execution's epoch
// stats. Outcomes without engine stats (serial runs, cache or store hits,
// twin answers) leave the epoch gauge alone — it always describes an actual
// parallel execution.
func (m *metrics) simEnd(cfgLabel string, seconds float64, out harness.Outcome, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight.Add(-1)
	h, ok := m.simLatency[cfgLabel]
	if !ok && len(m.simLatency) >= maxConfigLabels {
		cfgLabel = "other"
		h, ok = m.simLatency[cfgLabel]
	}
	if !ok {
		h = NewHistogram(latencyBuckets)
		m.simLatency[cfgLabel] = h
	}
	h.Observe(seconds)
	if err != nil {
		return
	}
	m.engineServed[out.Engine]++
	if out.Escalated {
		m.escalations++
	}
	if out.Engine == harness.EngineTwin {
		m.twinBound.Observe(out.Bound.IPCRel)
	}
	if es := out.Result.EngineStats; es.Epochs > 0 {
		m.epochCoverage[es.SMJobs] = es.Coverage(out.Result.Cycles)
		m.parallelRuns[es.SMJobs]++
	}
}

// render writes the daemon's own families.
func (m *metrics) render(e *Exposition) {
	m.mu.Lock()
	defer m.mu.Unlock()

	e.Gauge("apresd_inflight_simulations", "Requests currently executing simulations.", m.inflight.Load())

	e.Family("apresd_sim_duration_seconds", "histogram", "Simulation wall time by configuration.")
	for _, c := range SortedKeys(m.simLatency) {
		e.Histogram(m.simLatency[c], "config", c)
	}
	e.Family("apresd_engine_served_total", "counter", "Answered runs by serving engine.")
	for _, eng := range SortedKeys(m.engineServed) {
		e.Sample(m.engineServed[eng], "engine", eng)
	}
	e.Counter("apresd_engine_escalations_total", "Auto-engine runs escalated to the cycle-accurate simulator.", m.escalations)
	e.Counter("apresd_shed_total", "Requests rejected 429 by queue-depth admission control.", m.shed.Load())
	e.Family("apresd_twin_error_bound", "histogram", "Relative-IPC error bound of twin-served responses.")
	e.Histogram(m.twinBound)

	jobs := SortedKeys(m.parallelRuns)
	e.Family("apresd_epoch_coverage", "gauge", "Epoch coverage (fraction of executed, not idle-skipped, simulated cycles inside parallel epochs) of the most recent parallel run, by worker count.")
	for _, j := range jobs {
		e.SampleFloat(m.epochCoverage[j], "smjobs", strconv.Itoa(j))
	}
	e.Family("apresd_parallel_runs_total", "counter", "Completed parallel-engine runs by worker count.")
	for _, j := range jobs {
		e.Sample(m.parallelRuns[j], "smjobs", strconv.Itoa(j))
	}
}
