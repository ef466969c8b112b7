// Engine selection: every serving entry point can choose between the
// cycle-accurate simulator (exact, tens of milliseconds), the analytical
// twin (approximate with calibrated error bounds, microseconds), and an
// auto mode that serves from the twin whenever its bound fits the caller's
// tolerance and silently escalates to the simulator when it does not — or
// when the request demands something only a real execution has (load
// characterisation, traces, MaxCycles bounds).
//
// Twin answers and exact answers share persistent-store keys. A twin-served
// result is stored tagged Engine="twin" with its error bounds, the exact
// path treats such entries as misses, and an escalated exact run overwrites
// the twin entry in place — so a cached approximation can never masquerade
// as an exact result.
package harness

import (
	"fmt"

	"apres/internal/resultstore"
	"apres/internal/twin"
)

// Engine names accepted by ParseEngine and reported in Outcome.
const (
	// EngineCycleAccurate runs the real simulator. Always exact.
	EngineCycleAccurate = twin.EngineCycleAccurate
	// EngineTwin answers from the analytical model only, erroring on
	// requests it cannot serve (load stats, MaxCycles bounds).
	EngineTwin = twin.EngineTwin
	// EngineAuto serves from the twin when its error bound fits the
	// tolerance and escalates to the simulator otherwise.
	EngineAuto = "auto"
)

// Engines lists the valid engine names (flag docs, API errors).
func Engines() []string {
	return []string{EngineCycleAccurate, EngineTwin, EngineAuto}
}

// ParseEngine normalises an engine name from a flag or API request. The
// empty string selects the cycle-accurate engine, preserving pre-engine
// behaviour for every existing caller.
func ParseEngine(s string) (string, error) {
	switch s {
	case "":
		return EngineCycleAccurate, nil
	case EngineCycleAccurate, EngineTwin, EngineAuto:
		return s, nil
	}
	return "", fmt.Errorf("harness: unknown engine %q (valid: %v)", s, Engines())
}

// EngineReq selects the engine for one run.
type EngineReq struct {
	// Engine is one of the Engine* constants; "" defers to
	// Runner.EngineDefault (itself cycle-accurate unless set).
	Engine string
	// Tolerance is the auto engine's escalation threshold on the relative
	// IPC error bound; 0 selects the calibration's default.
	Tolerance float64
}

// Twin returns the Runner's analytical model (shared, lazily built).
func (r *Runner) Twin() *twin.Model {
	r.twinOnce.Do(func() { r.twinModel = twin.New() })
	return r.twinModel
}

// twinID qualifies a workload identity for twin queries. Anchors are fitted
// at one iteration scale; a run at any other scale is off the calibration
// set, so its id is qualified out of the anchor map and the prediction
// carries honest unanchored bounds.
func (r *Runner) twinID(id string) string {
	if r.Scale != r.Twin().Calibration().Scale {
		return fmt.Sprintf("%s@scale=%g", id, r.Scale)
	}
	return id
}

// TwinSpeedups answers the Figure-10 scheduler-variant axis for one
// workload analytically: per-variant IPC speedup over the LRR baseline
// built from the named configuration's machine geometry. The variants are
// twin.SchedulerVariants; answers cost microseconds and never occupy the
// worker pool.
func (r *Runner) TwinSpeedups(app, cfgName string) (map[string]float64, error) {
	c, err := r.resolve(Request{Workload: app, Config: cfgName})
	if err != nil {
		return nil, err
	}
	w, err := r.workload(&c)
	if err != nil {
		return nil, err
	}
	return r.Twin().Speedups(r.twinID(c.cell.Workload), w, c.Inline)
}

// TwinDRAMPoint is one point of an analytically predicted DRAM-bandwidth
// sweep (the SweepDRAMBandwidth axis answered by the twin).
type TwinDRAMPoint struct {
	// Interval is the DRAM per-partition service interval in cycles
	// (smaller = more bandwidth).
	Interval int `json:"interval"`
	// IPC is the twin-predicted throughput at this interval.
	IPC float64 `json:"ipc"`
	// Speedup is predicted execution time relative to the sweep's first
	// point, mirroring harness.Sweep semantics.
	Speedup float64 `json:"speedup"`
}

// TwinDRAMBandwidth predicts the DRAM-bandwidth sensitivity of one
// workload analytically: the named configuration evaluated at each
// per-partition service interval, with speedups normalised to the first
// point like SweepDRAMBandwidth.
func (r *Runner) TwinDRAMBandwidth(app, cfgName string, intervals []int) ([]TwinDRAMPoint, error) {
	if len(intervals) == 0 {
		return nil, fmt.Errorf("harness: no DRAM service intervals given")
	}
	j, err := r.resolve(Request{Workload: app, Config: cfgName})
	if err != nil {
		return nil, err
	}
	w, err := r.workload(&j)
	if err != nil {
		return nil, err
	}
	m, id := r.Twin(), r.twinID(j.cell.Workload)
	out := make([]TwinDRAMPoint, 0, len(intervals))
	var firstCycles int64
	for _, v := range intervals {
		c := j.Inline
		c.DRAMServiceInterval = v
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("harness: DRAM interval %d: %w", v, err)
		}
		p, err := m.Predict(id, w, c)
		if err != nil {
			return nil, err
		}
		if firstCycles == 0 {
			firstCycles = p.Cycles
		}
		out = append(out, TwinDRAMPoint{
			Interval: v,
			IPC:      p.IPC,
			Speedup:  float64(firstCycles) / float64(p.Cycles),
		})
	}
	return out, nil
}

// twinServe answers one cell from the analytical twin, store-first: an exact
// entry under the cell's key is strictly better than a prediction and is
// served as cycle-accurate; a twin entry is served with its stored bounds;
// otherwise the model predicts and the tagged result is persisted. Twin
// queries never take a worker-pool slot and never enter the exact memo
// cache — a prediction is microseconds, and the memo must stay exact-only.
func (r *Runner) twinServe(c *job) (Outcome, error) {
	out := Outcome{Engine: EngineTwin, Key: r.address(c)}
	if out.Key != "" {
		if e, ok := r.Store.Get(out.Key); ok {
			r.count(&r.stats.StoreHits)
			out.Result, out.Cached = e.Result, true
			if e.Exact() {
				out.Engine = EngineCycleAccurate
			} else {
				out.Bound = twin.Bounds{IPCRel: e.ErrorBoundIPC, L1HitAbs: e.ErrorBoundL1}
			}
			return out, nil
		}
	}
	w, err := r.workload(c)
	if err != nil {
		return Outcome{}, err
	}
	p, err := r.Twin().Predict(r.twinID(c.cell.Workload), w, c.Inline)
	if err != nil {
		return Outcome{}, err
	}
	out.Result, out.Bound = p.Result(), p.Bounds
	r.put(c, resultstore.Entry{
		Engine:        twin.EngineTwin,
		ErrorBoundIPC: p.Bounds.IPCRel,
		ErrorBoundL1:  p.Bounds.L1HitAbs,
		Result:        out.Result,
	})
	return out, nil
}
