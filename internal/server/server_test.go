package server

// httptest-based suite for the apresd API. The headline acceptance
// properties: 100+ concurrent identical simulate requests trigger exactly
// one simulation (singleflight through the Runner, verified via RunStats);
// a second server over the same store directory answers without
// re-simulating; SIGTERM-style shutdown (context cancellation into Serve)
// drains in-flight requests; and /metrics exposes exact counter values
// after a known request sequence. Run with -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"apres/internal/config"
	"apres/internal/harness"
	"apres/internal/resultstore"
)

// newTestServer returns a Server over a small-scale Runner persisting into
// dir ("" = no store).
func newTestServer(t testing.TB, dir string, timeout time.Duration) (*Server, *harness.Runner) {
	t.Helper()
	r := harness.NewRunner(0.05, 2)
	r.Jobs = 8
	if dir != "" {
		st, err := resultstore.Open(dir, 32)
		if err != nil {
			t.Fatal(err)
		}
		r.Store = st
	}
	return New(Options{Runner: r, SimTimeout: timeout}), r
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeSimulate(t *testing.T, data []byte) SimulateResponse {
	t.Helper()
	var out SimulateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad simulate response: %v\n%s", err, data)
	}
	return out
}

func TestConcurrentIdenticalSimulatesDeduplicate(t *testing.T) {
	s, r := newTestServer(t, t.TempDir(), 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const callers = 120
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		cycles = map[int64]int{}
		fails  int
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, data := postJSON(t, ts.URL+"/v1/simulate",
				SimulateRequest{Workload: "SP", Config: "apres"})
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode != http.StatusOK {
				fails++
				return
			}
			out := decodeSimulate(t, data)
			cycles[out.Result.Cycles]++
		}()
	}
	close(start)
	wg.Wait()

	if fails > 0 {
		t.Fatalf("%d/%d requests failed", fails, callers)
	}
	if len(cycles) != 1 {
		t.Fatalf("callers observed %d distinct cycle counts: %v", len(cycles), cycles)
	}
	st := r.Stats()
	if st.Simulations != 1 {
		t.Fatalf("%d simulations for %d identical requests, want exactly 1", st.Simulations, callers)
	}
	if got := st.CacheHits + st.DedupWaits; got != callers-1 {
		t.Fatalf("cache hits (%d) + dedup waits (%d) = %d, want %d",
			st.CacheHits, st.DedupWaits, got, callers-1)
	}
}

func TestRestartedDaemonServesFromStore(t *testing.T) {
	dir := t.TempDir()
	req := SimulateRequest{Workload: "KM", Config: "laws+sld"}

	s1, r1 := newTestServer(t, dir, 0)
	ts1 := httptest.NewServer(s1)
	resp, data := postJSON(t, ts1.URL+"/v1/simulate", req)
	ts1.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first daemon: %d %s", resp.StatusCode, data)
	}
	first := decodeSimulate(t, data)
	if first.Cached {
		t.Fatal("cold request reported cached")
	}
	if r1.Stats().Simulations != 1 {
		t.Fatalf("first daemon simulations = %d", r1.Stats().Simulations)
	}

	// "Restart": a brand-new Runner + Server over the same directory.
	s2, r2 := newTestServer(t, dir, 0)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, data = postJSON(t, ts2.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second daemon: %d %s", resp.StatusCode, data)
	}
	second := decodeSimulate(t, data)
	st := r2.Stats()
	if st.Simulations != 0 {
		t.Fatalf("restarted daemon re-simulated (%d sims)", st.Simulations)
	}
	if st.StoreHits != 1 {
		t.Fatalf("restarted daemon stats = %+v, want 1 store hit", st)
	}
	if !second.Cached {
		t.Fatal("warm request not reported cached")
	}
	if first.Result.Cycles != second.Result.Cycles || first.Key != second.Key {
		t.Fatalf("restart changed the answer: %d/%s vs %d/%s",
			first.Result.Cycles, first.Key, second.Result.Cycles, second.Key)
	}
}

func TestResultsByKeyAndInlineConfig(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir(), 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	inline := config.Baseline().WithScheduler(config.SchedGTO)
	resp, data := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Workload: "BFS", ConfigInline: &inline})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline config: %d %s", resp.StatusCode, data)
	}
	out := decodeSimulate(t, data)
	if out.Key == "" || !strings.HasPrefix(out.Config, "cfg:") {
		t.Fatalf("inline response lacks key/digest label: %+v", out)
	}

	get, err := http.Get(ts.URL + "/v1/results/" + out.Key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %s", get.StatusCode, body)
	}
	var e resultstore.Entry
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Workload != "BFS" || e.Result.Cycles != out.Result.Cycles {
		t.Fatalf("stored entry mismatch: %+v", e)
	}

	// The same inline config via the named path ("gto") hits the same
	// content address.
	resp, data = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "BFS", Config: "gto"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named gto: %d %s", resp.StatusCode, data)
	}
	if named := decodeSimulate(t, data); named.Key != out.Key || !named.Cached {
		t.Fatalf("named/inline key mismatch: %q vs %q (cached=%v)", named.Key, out.Key, named.Cached)
	}

	for _, bad := range []string{"zz", "../../etc/passwd", strings.Repeat("a", 63)} {
		get, err := http.Get(ts.URL + "/v1/results/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		get.Body.Close()
		if get.StatusCode != http.StatusBadRequest && get.StatusCode != http.StatusNotFound {
			t.Errorf("key %q: status %d, want 400/404", bad, get.StatusCode)
		}
	}
	get, err = http.Get(ts.URL + "/v1/results/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusNotFound {
		t.Errorf("absent key: status %d, want 404", get.StatusCode)
	}
}

// TestResultBytesMatchJSONEntries pins GET /v1/results/{key} to the bytes it
// served while store entries were whole JSON documents: a disk read must
// answer exactly what encoding/json gave back for the entry that was Put.
func TestResultBytesMatchJSONEntries(t *testing.T) {
	dir := t.TempDir()
	_, r := newTestServer(t, dir, 0)
	ctx := context.Background()
	var keys []string
	for _, req := range []harness.Request{
		{Workload: "SP", Config: "apres"},
		{Workload: "KM", Config: "gto", EngineReq: harness.EngineReq{Engine: harness.EngineTwin}},
	} {
		out, err := r.Do(ctx, req)
		if err != nil || out.Key == "" {
			t.Fatalf("%s/%s: key %q, err %v", req.Workload, req.Config, out.Key, err)
		}
		keys = append(keys, out.Key)
	}

	s2, r2 := newTestServer(t, dir, 0) // a restarted daemon: every GET reads the disk
	for _, key := range keys {
		stored, ok := r.Store.Get(key) // the in-memory copy that Put wrote out
		if !ok {
			t.Fatal("entry missing from the writer's memory front")
		}
		data, err := json.Marshal(stored)
		if err != nil {
			t.Fatal(err)
		}
		var parsed resultstore.Entry
		if err := json.Unmarshal(data, &parsed); err != nil {
			t.Fatal(err)
		}
		want := httptest.NewRecorder()
		WriteJSON(want, http.StatusOK, parsed)

		got := httptest.NewRecorder()
		s2.ServeHTTP(got, httptest.NewRequest("GET", "/v1/results/"+key, nil))
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s (%s): GET answers %d, %d bytes; the JSON entry gives %d bytes", key[:8],
				stored.Engine, got.Code, got.Body.Len(), want.Body.Len())
		}
	}
	if st := r2.Store.Stats(); st.DiskHits != int64(len(keys)) {
		t.Fatalf("restarted store stats = %+v, want %d disk hits", st, len(keys))
	}
}

func TestBadRequestsReturn400(t *testing.T) {
	s, _ := newTestServer(t, "", 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	bad := config.Baseline()
	bad.NumSMs = 0
	cases := []struct {
		name string
		body any
	}{
		{"unknown workload", SimulateRequest{Workload: "NOPE", Config: "base"}},
		{"missing workload", SimulateRequest{Config: "base"}},
		{"unknown config", SimulateRequest{Workload: "BFS", Config: "warpdrive"}},
		{"unknown prefetcher", SimulateRequest{Workload: "BFS", Config: "laws+bogus"}},
		{"invalid inline", SimulateRequest{Workload: "BFS", ConfigInline: &bad}},
		{"both configs", SimulateRequest{Workload: "BFS", Config: "base", ConfigInline: &bad}},
	}
	for _, c := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/simulate", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, data)
		}
		var e apiError
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no JSON error body: %s", c.name, data)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Sweep validation.
	for name, body := range map[string]SweepRequest{
		"empty":        {},
		"bad workload": {Workloads: []string{"NOPE"}, Configs: []string{"base"}},
		"bad config":   {Workloads: []string{"BFS"}, Configs: []string{"nope"}},
		"empty config": {Workloads: []string{"BFS"}, Configs: []string{""}},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep %s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestSweepMatrix(t *testing.T) {
	s, r := newTestServer(t, t.TempDir(), 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: []string{"BFS", "KM"},
		Configs:   []string{"base", "apres"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, data)
	}
	var out SweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(out.Cells))
	}
	wantOrder := []string{"BFS/base", "BFS/apres", "KM/base", "KM/apres"}
	for i, c := range out.Cells {
		if got := c.Workload + "/" + c.Config; got != wantOrder[i] {
			t.Errorf("cell %d = %s, want %s", i, got, wantOrder[i])
		}
		if c.Error != "" || c.Cycles <= 0 || c.IPC <= 0 || c.Key == "" {
			t.Errorf("degenerate cell %+v", c)
		}
	}
	if st := r.Stats(); st.Simulations != 4 {
		t.Fatalf("sweep ran %d simulations, want 4", st.Simulations)
	}

	// Re-sweeping is answered from the memo without new simulations.
	resp, data = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: []string{"BFS", "KM"},
		Configs:   []string{"base", "apres"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-sweep: %d %s", resp.StatusCode, data)
	}
	if st := r.Stats(); st.Simulations != 4 {
		t.Fatalf("re-sweep simulated again: %d total sims", st.Simulations)
	}
}

func TestMetricsAfterKnownSequence(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir(), 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Known sequence: one cold simulate, the identical simulate again
	// (memo hit), one bad request.
	req := SimulateRequest{Workload: "SP", Config: "base"}
	if resp, data := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != 200 {
		t.Fatalf("cold: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp.StatusCode, data)
	} else if out := decodeSimulate(t, data); !out.Cached {
		t.Fatal("second identical request not reported cached")
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "NOPE"}); resp.StatusCode != 400 {
		t.Fatalf("bad request: %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`apresd_requests_total{endpoint="simulate",code="200"} 2`,
		`apresd_requests_total{endpoint="simulate",code="400"} 1`,
		"apresd_inflight_simulations 0",
		"apresd_runner_simulations_total 1",
		"apresd_runner_cache_hits_total 1",
		"apresd_store_puts_total 1",
		"apresd_pool_capacity 8",
		"apresd_pool_busy 0",
		"apresd_pool_queue_depth 0",
		`apresd_sim_duration_seconds_count{config="base"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestTracedSimulateProducesArtifact covers the trace opt-in end to end:
// a traced request must actually simulate (never a cache answer), link a
// downloadable artifact, and that artifact must be a valid Chrome-trace
// JSON document with the core event categories and the interval counter
// series populated.
func TestTracedSimulateProducesArtifact(t *testing.T) {
	r := harness.NewRunner(0.05, 2)
	s := New(Options{Runner: r, TraceDir: filepath.Join(t.TempDir(), "traces")})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := SimulateRequest{Workload: "SP", Config: "apres", Trace: true, TraceIntervalCycles: 500}
	resp, data := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced simulate: %d %s", resp.StatusCode, data)
	}
	out := decodeSimulate(t, data)
	if out.Trace == "" || !strings.HasPrefix(out.Trace, "/v1/traces/") {
		t.Fatalf("no trace link in response: %+v", out)
	}
	if out.Key != "" || out.Cached {
		t.Fatalf("traced run must bypass the caches: key=%q cached=%v", out.Key, out.Cached)
	}
	if out.Result.Cycles <= 0 {
		t.Fatalf("degenerate traced result: %+v", out.Result)
	}

	get, err := http.Get(ts.URL + out.Trace)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d %s", get.StatusCode, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace artifact is not valid JSON: %v", err)
	}
	byCat := map[string]int{}
	for _, e := range doc.TraceEvents {
		byCat[e.Cat]++
	}
	for _, cat := range []string{"warp", "cache", "mshr", "dram", "interval"} {
		if byCat[cat] == 0 {
			t.Errorf("trace has no %q events (categories: %v)", cat, byCat)
		}
	}

	// An identical traced request simulates again: traces need execution.
	if resp, data := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("second traced simulate: %d %s", resp.StatusCode, data)
	} else if second := decodeSimulate(t, data); second.Trace == out.Trace {
		t.Fatalf("second traced run reused artifact %q", second.Trace)
	}
	if st := r.Stats(); st.Simulations != 2 {
		t.Fatalf("traced requests ran %d simulations, want 2", st.Simulations)
	}

	// Unknown artifact ids are 404, not file probes.
	get, err = http.Get(ts.URL + "/v1/traces/nope.json")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusNotFound {
		t.Fatalf("absent trace: status %d, want 404", get.StatusCode)
	}
}

func TestTracedSimulateWithoutTraceDirIs400(t *testing.T) {
	s, _ := newTestServer(t, "", 0) // no TraceDir
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, data := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Workload: "SP", Config: "base", Trace: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace without tracedir: status %d, want 400 (%s)", resp.StatusCode, data)
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, "", 0)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["version"] == "" {
		t.Fatalf("healthz body: %v", out)
	}
}

func TestSimulateTimeoutReturns504(t *testing.T) {
	// Full-scale run with a 5ms budget: the context deadline must abort
	// the simulation and map to 504.
	r := harness.NewRunner(1, 0)
	s := New(Options{Runner: r, SimTimeout: 5 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, data := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Workload: "KM", Config: "base"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, data)
	}
}

func TestShutdownDrainsInflightRequests(t *testing.T) {
	// Serve(ctx) is what cmd/apresd points SIGTERM at: cancelling ctx must
	// let an in-flight simulation finish and be answered before Serve
	// returns.
	s, _ := newTestServer(t, "", 0)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l, 30*time.Second) }()
	url := fmt.Sprintf("http://%s", l.Addr())

	// Wait until the server accepts connections.
	for i := 0; ; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i > 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	type result struct {
		code int
		body SimulateResponse
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		buf, _ := json.Marshal(SimulateRequest{Workload: "SRAD", Config: "apres"})
		resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(buf))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out SimulateResponse
		derr := json.NewDecoder(resp.Body).Decode(&out)
		inflight <- result{code: resp.StatusCode, body: out, err: derr}
	}()

	// Give the request a moment to reach the handler, then "SIGTERM".
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	select {
	case res := <-inflight:
		if res.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", res.err)
		}
		if res.code != http.StatusOK || res.body.Result.Cycles == 0 {
			t.Fatalf("in-flight request not served: code=%d cycles=%d", res.code, res.body.Result.Cycles)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// After shutdown, new connections are refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}
