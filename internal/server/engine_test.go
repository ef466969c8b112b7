package server

// Engine-selection tests for the daemon: /v1/simulate and /v1/sweep must
// annotate which engine produced each answer, an auto-mode sweep over the
// golden families must be mostly twin-served with escalated cells
// bit-identical to the serial simulator, and /metrics must expose the
// per-engine counters and the twin error-bound histogram.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apres/internal/harness"
	"apres/internal/resultstore"
)

// newEngineTestServer runs at the twin calibration's scale with the
// reference machine geometry, so golden workloads are anchored and the
// auto engine's default tolerance admits the well-modelled families.
func newEngineTestServer(t *testing.T, dir string) (*Server, *harness.Runner) {
	t.Helper()
	r := harness.NewRunner(0.25, 0)
	r.Jobs = 8
	if dir != "" {
		st, err := resultstore.Open(dir, 32)
		if err != nil {
			t.Fatal(err)
		}
		r.Store = st
	}
	return New(Options{Runner: r}), r
}

func TestSimulateEngineAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates at calibration scale")
	}
	s, _ := newEngineTestServer(t, t.TempDir())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Twin-served: annotated with the engine and its error bound.
	resp, data := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Workload: "SP", Config: "base", Engine: "twin"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("twin simulate: %d %s", resp.StatusCode, data)
	}
	out := decodeSimulate(t, data)
	if out.Engine != harness.EngineTwin || out.Escalated {
		t.Fatalf("engine = %q escalated = %v, want an unescalated twin answer", out.Engine, out.Escalated)
	}
	if out.ErrorBound == nil || out.ErrorBound.IPCRel <= 0 {
		t.Fatalf("twin answer carries no error bound: %+v", out.ErrorBound)
	}

	// Auto with an unmeetable tolerance: escalated, exact, no bound.
	resp, data = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Workload: "SP", Config: "base", Engine: "auto", Tolerance: 1e-9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto simulate: %d %s", resp.StatusCode, data)
	}
	out = decodeSimulate(t, data)
	if out.Engine != harness.EngineCycleAccurate || !out.Escalated {
		t.Fatalf("engine = %q escalated = %v, want an escalated exact run", out.Engine, out.Escalated)
	}
	if out.ErrorBound != nil {
		t.Fatalf("exact answer carries an error bound: %+v", out.ErrorBound)
	}

	// Twin + load statistics is a contract violation, not a silent fallback.
	resp, data = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Workload: "SP", Config: "base", Engine: "twin", LoadStats: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("twin+loadStats: %d %s, want 400", resp.StatusCode, data)
	}
	// Unknown engines fail fast.
	resp, data = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Workload: "SP", Config: "base", Engine: "oracle"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine: %d %s, want 400", resp.StatusCode, data)
	}
}

func TestAutoSweepTwinFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates escalated cells at calibration scale")
	}
	s, r := newEngineTestServer(t, t.TempDir())
	ts := httptest.NewServer(s)
	defer ts.Close()

	apps := []string{"SP", "BFS"}
	resp, data := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: apps,
		Configs:   []string{"base", "apres"},
		Engine:    "auto",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, data)
	}
	var sw SweepResponse
	if err := json.Unmarshal(data, &sw); err != nil {
		t.Fatalf("bad sweep response: %v\n%s", err, data)
	}
	if len(sw.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(sw.Cells))
	}

	twinServed, escalated := 0, 0
	for _, c := range sw.Cells {
		if c.Error != "" {
			t.Fatalf("cell %s/%s: %s", c.Workload, c.Config, c.Error)
		}
		switch c.Engine {
		case harness.EngineTwin:
			twinServed++
			if c.Escalated || c.ErrorBound == nil {
				t.Errorf("twin cell %s/%s: escalated=%v bound=%v", c.Workload, c.Config, c.Escalated, c.ErrorBound)
			}
		case harness.EngineCycleAccurate:
			if c.Escalated {
				escalated++
			}
			if c.ErrorBound != nil {
				t.Errorf("exact cell %s/%s carries an error bound", c.Workload, c.Config)
			}
		default:
			t.Errorf("cell %s/%s: unannotated engine %q", c.Workload, c.Config, c.Engine)
		}
	}
	// The acceptance floor: at least half the golden-family sweep is served
	// without touching the simulator.
	if twinServed*2 < len(sw.Cells) {
		t.Errorf("only %d/%d cells twin-served", twinServed, len(sw.Cells))
	}
	if escalated == 0 {
		t.Error("no cell escalated; the worst-modelled family should have")
	}
	if st := r.Stats(); int(st.TwinServed) != twinServed || int(st.TwinEscalations) != escalated {
		t.Errorf("runner stats %+v disagree with cells (twin %d, escalated %d)", st, twinServed, escalated)
	}

	// Escalated cells are the simulator's answer, bit-identical to a plain
	// serial-engine run.
	serial := harness.NewRunner(0.25, 0)
	for _, c := range sw.Cells {
		if !c.Escalated {
			continue
		}
		exact, err := serial.Run(c.Workload, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cycles != exact.Cycles || c.IPC != exact.IPC() {
			t.Errorf("escalated cell %s/%s (cycles %d, ipc %v) differs from serial engine (cycles %d, ipc %v)",
				c.Workload, c.Config, c.Cycles, c.IPC, exact.Cycles, exact.IPC())
		}
	}

	// The metrics endpoint must account for every cell.
	mresp, mdata := httpGet(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	body := string(mdata)
	for _, want := range []string{
		`apresd_engine_served_total{engine="twin"} 2`,
		`apresd_engine_served_total{engine="cycle-accurate"} 2`,
		`apresd_engine_escalations_total 2`,
		`apresd_twin_error_bound_count 2`,
		`apresd_runner_twin_served_total 2`,
		`apresd_runner_twin_escalations_total 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDaemonDefaultEngine: an apresd started with -engine auto applies the
// engine to requests that do not choose one, and explicit requests still
// override it.
func TestDaemonDefaultEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates at calibration scale")
	}
	r := harness.NewRunner(0.25, 0)
	r.Jobs = 8
	s := New(Options{Runner: r, DefaultEngine: "twin"})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "SP", Config: "base"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("defaulted simulate: %d %s", resp.StatusCode, data)
	}
	if out := decodeSimulate(t, data); out.Engine != harness.EngineTwin {
		t.Fatalf("daemon default not applied: engine %q", out.Engine)
	}
	if st := r.Stats(); st.Simulations != 0 {
		t.Fatalf("defaulted twin request simulated: %+v", st)
	}

	resp, data = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Workload: "SP", Config: "base", Engine: "cycle-accurate"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override simulate: %d %s", resp.StatusCode, data)
	}
	if out := decodeSimulate(t, data); out.Engine != harness.EngineCycleAccurate {
		t.Fatalf("explicit engine did not override the default: %q", out.Engine)
	}
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestCachedIsSetWhereTheHitHappens: "cached" says where this answer came
// from, not what a peek before the run guessed. The exact memo holding a
// cell says nothing about a twin answer for it; a twin entry in the store
// does; a traced run is never cached and has no key.
func TestCachedIsSetWhereTheHitHappens(t *testing.T) {
	simulate := func(url string, req SimulateRequest) SimulateResponse {
		t.Helper()
		resp, data := postJSON(t, url+"/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: %d %s", req, resp.StatusCode, data)
		}
		return decodeSimulate(t, data)
	}
	exact := SimulateRequest{Workload: "SP", Config: "base"}
	twin := SimulateRequest{Workload: "SP", Config: "base", Engine: harness.EngineTwin}

	// Without a store: the memo holds the exact cell, the twin never reads it.
	bare, _ := newTestServer(t, "", 0)
	ts := httptest.NewServer(bare)
	defer ts.Close()
	if out := simulate(ts.URL, exact); out.Cached {
		t.Error("cold exact run reported cached")
	}
	if out := simulate(ts.URL, exact); !out.Cached {
		t.Error("memoised exact run not reported cached")
	}
	if out := simulate(ts.URL, twin); out.Cached || out.Engine != harness.EngineTwin {
		t.Errorf("fresh twin prediction: cached=%v engine=%q, want an uncached twin answer", out.Cached, out.Engine)
	}

	// With a store: the second twin answer is the first one's entry.
	r := harness.NewRunner(0.05, 2)
	st, err := resultstore.Open(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	r.Store = st
	stored := httptest.NewServer(New(Options{Runner: r, TraceDir: t.TempDir()}))
	defer stored.Close()
	first := simulate(stored.URL, twin)
	second := simulate(stored.URL, twin)
	if first.Cached || !second.Cached || second.Key != first.Key || second.Engine != harness.EngineTwin {
		t.Errorf("twin twice: cached %v then %v, keys %q/%q, engine %q; want false then true on one key, twin both times",
			first.Cached, second.Cached, first.Key, second.Key, second.Engine)
	}
	// An exact request finds only that approximation: it simulates.
	if out := simulate(stored.URL, exact); out.Cached || out.Key != first.Key {
		t.Errorf("exact over a twin entry: cached=%v key=%q, want a fresh run under the same key", out.Cached, out.Key)
	}

	traced := exact
	traced.Trace = true
	if out := simulate(stored.URL, traced); out.Cached || out.Key != "" || out.Trace == "" {
		t.Errorf("traced run: cached=%v key=%q trace=%q, want uncached, keyless, with an artifact", out.Cached, out.Key, out.Trace)
	}
}
