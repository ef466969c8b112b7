package cluster

// End-to-end cluster suite over httptest workers, designed for -race:
//
//   - a 3-worker coordinator sweep merges byte-identical to a single-node
//     sweep of the same matrix, and a repeat sweep is answered entirely
//     from warm worker state (zero new simulations);
//   - killing a worker mid-sweep (connections severed, listener closed,
//     in-flight cells stuck behind a gate) still completes the sweep via
//     re-dispatch to the survivors;
//   - a worker that sheds with 429 has its cells migrated without being
//     marked dead and without any duplicate simulation;
//   - /v1/simulate proxies to a worker verbatim, trace requests are
//     rejected 400, and the join/status/healthz control plane behaves.
//
// Workers share one content-addressed store directory, exactly like a real
// deployment on a shared filesystem — that is what makes re-dispatch and
// shed migration duplicate-free.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"apres/internal/harness"
	"apres/internal/resultstore"
	"apres/internal/server"
	"apres/internal/workloads"
)

// testOptions returns coordinator options tuned for fast, deterministic
// tests: millisecond backoff, short shed penalty, quick failure marking.
func testOptions(nodes ...string) Options {
	return Options{
		Nodes:         nodes,
		CellTimeout:   30 * time.Second,
		ProbeTimeout:  2 * time.Second,
		FailThreshold: 2,
		BackoffBase:   time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		ShedPenalty:   20 * time.Millisecond,
	}
}

// newWorker starts one apresd worker over a (possibly shared) store dir.
func newWorker(t *testing.T, storeDir string) (*httptest.Server, *harness.Runner) {
	t.Helper()
	r := harness.NewRunner(0.05, 2)
	r.Jobs = 8
	if storeDir != "" {
		st, err := resultstore.Open(storeDir, 32)
		if err != nil {
			t.Fatal(err)
		}
		r.Store = st
	}
	ts := httptest.NewServer(server.New(server.Options{Runner: r}))
	t.Cleanup(ts.Close)
	return ts, r
}

// matrix returns the full 15-workload x 2-config sweep request. 30 cells
// over 3 random httptest ports make "every worker owns at least one cell"
// overwhelmingly likely ((2/3)^30 per worker otherwise).
func matrix() server.SweepRequest {
	return server.SweepRequest{Workloads: workloads.Names(), Configs: []string{"base", "apres"}}
}

func postSweep(t *testing.T, url string, req server.SweepRequest) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(buf))
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

// normalize decodes a sweep response and zeroes the fields that
// legitimately differ between executions (wall time, cache-warmth at
// request arrival). Everything else — ordering, keys, cycles, IPC, hit
// rates, engine annotations — must match bit-for-bit.
func normalize(t *testing.T, data []byte) []byte {
	t.Helper()
	var resp server.SweepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad sweep response: %v\n%s", err, data)
	}
	for i := range resp.Cells {
		if resp.Cells[i].Error != "" {
			t.Fatalf("cell %d failed: %s", i, resp.Cells[i].Error)
		}
		resp.Cells[i].WallMS = 0
		resp.Cells[i].Cached = false
	}
	out, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestClusterSweepMatchesSingleNode(t *testing.T) {
	shared := t.TempDir()
	var urls []string
	var runners []*harness.Runner
	for i := 0; i < 3; i++ {
		ts, r := newWorker(t, shared)
		urls = append(urls, ts.URL)
		runners = append(runners, r)
	}
	coord, err := New(testOptions(urls...))
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(NewServer(coord))
	defer cs.Close()

	// Reference: the same matrix on one standalone worker with a cold,
	// separate store.
	single, _ := newWorker(t, t.TempDir())
	req := matrix()
	sresp, sdata := postSweep(t, single.URL, req)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("single-node sweep: %d (%s)", sresp.StatusCode, sdata)
	}

	cresp, cdata := postSweep(t, cs.URL, req)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cluster sweep: %d (%s)", cresp.StatusCode, cdata)
	}
	if got, want := normalize(t, cdata), normalize(t, sdata); !bytes.Equal(got, want) {
		t.Fatalf("merged cluster response differs from single-node response:\n--- cluster ---\n%s\n--- single ---\n%s", got, want)
	}

	// Sharding actually spread the work: every worker simulated something,
	// and nothing was simulated twice.
	var total int64
	for i, r := range runners {
		st := r.Stats()
		if st.Simulations == 0 {
			t.Errorf("worker %d simulated nothing; cells all landed elsewhere", i)
		}
		total += st.Simulations
	}
	if want := int64(len(req.Workloads) * len(req.Configs)); total != want {
		t.Fatalf("workers simulated %d cells, want exactly %d (no duplicates)", total, want)
	}

	// Warm affinity: a repeat sweep routes every cell back onto a node
	// that already holds it — zero new simulations, all cells cached.
	cresp2, cdata2 := postSweep(t, cs.URL, req)
	if cresp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat cluster sweep: %d", cresp2.StatusCode)
	}
	var again server.SweepResponse
	if err := json.Unmarshal(cdata2, &again); err != nil {
		t.Fatal(err)
	}
	for i, c := range again.Cells {
		if !c.Cached {
			t.Errorf("repeat cell %d (%s/%s) not served from warm state", i, c.Workload, c.Config)
		}
	}
	var total2 int64
	for _, r := range runners {
		total2 += r.Stats().Simulations
	}
	if total2 != total {
		t.Fatalf("repeat sweep re-simulated: %d -> %d", total, total2)
	}
	if got, want := normalize(t, cdata2), normalize(t, sdata); !bytes.Equal(got, want) {
		t.Fatal("repeat cluster response differs from single-node response")
	}
}

// gate wraps a worker handler so a test can hold its sweep requests open:
// the first request signals got, and every sweep request blocks until
// release closes. Health probes pass straight through.
type gate struct {
	inner   http.Handler
	got     chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/sweep" {
		g.once.Do(func() { close(g.got) })
		<-g.release
	}
	g.inner.ServeHTTP(w, r)
}

func TestClusterWorkerDeathMidSweep(t *testing.T) {
	shared := t.TempDir()
	w1, _ := newWorker(t, shared)
	w2, _ := newWorker(t, shared)

	// The victim accepts sweep requests but never answers them until
	// released — its cells are genuinely in flight when it dies.
	vr := harness.NewRunner(0.05, 2)
	vr.Jobs = 8
	vst, err := resultstore.Open(shared, 32)
	if err != nil {
		t.Fatal(err)
	}
	vr.Store = vst
	g := &gate{
		inner:   server.New(server.Options{Runner: vr}),
		got:     make(chan struct{}),
		release: make(chan struct{}),
	}
	victim := httptest.NewServer(g)

	coord, err := New(testOptions(w1.URL, w2.URL, victim.URL))
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(NewServer(coord))
	defer cs.Close()

	req := matrix()
	type sweepResult struct {
		resp *http.Response
		data []byte
	}
	done := make(chan sweepResult, 1)
	go func() {
		buf, _ := json.Marshal(req)
		resp, err := http.Post(cs.URL+"/v1/sweep", "application/json", bytes.NewReader(buf))
		if err != nil {
			done <- sweepResult{}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- sweepResult{resp, data}
	}()

	select {
	case <-g.got:
	case <-time.After(30 * time.Second):
		t.Fatal("no cell ever reached the victim")
	}
	// Kill it mid-sweep: sever the in-flight connections (the coordinator
	// sees transport errors on the stuck cells) and stop accepting new
	// ones (retries fail straight away, marking the node dead).
	victim.CloseClientConnections()
	victim.Listener.Close()
	close(g.release)

	res := <-done
	if res.resp == nil {
		t.Fatal("cluster sweep request failed outright")
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster sweep: %d (%s)", res.resp.StatusCode, res.data)
	}

	// Every cell completed despite the death — normalize fails the test on
	// any cell error — and matches a fresh single-node reference.
	single, _ := newWorker(t, t.TempDir())
	sresp, sdata := postSweep(t, single.URL, req)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("single-node sweep: %d", sresp.StatusCode)
	}
	if got, want := normalize(t, res.data), normalize(t, sdata); !bytes.Equal(got, want) {
		t.Fatal("degraded cluster response differs from single-node response")
	}

	st := coord.Status()
	var deadSeen bool
	for _, n := range st.Nodes {
		if n.URL == victimURL(victim) {
			deadSeen = true
			if n.Healthy {
				t.Error("victim still marked healthy after its death")
			}
			if n.Failed == 0 {
				t.Error("victim records no failures")
			}
		}
	}
	if !deadSeen {
		t.Fatalf("victim missing from status: %+v", st.Nodes)
	}
	if st.Retries == 0 {
		t.Error("no retries recorded for re-dispatched cells")
	}
	if st.CellsFailed != 0 {
		t.Errorf("%d cells failed, want 0 (all must re-dispatch)", st.CellsFailed)
	}
}

// victimURL normalizes an httptest URL the way the coordinator stores it.
func victimURL(ts *httptest.Server) string {
	nu, _ := normalizeNode(ts.URL)
	return nu
}

// shedder wraps a worker so every simulate/sweep request is answered 429,
// as if its queue watermark were permanently exceeded.
type shedder struct {
	inner http.Handler
	shed  int64
	mu    sync.Mutex
}

func (s *shedder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/sweep" || r.URL.Path == "/v1/simulate" {
		s.mu.Lock()
		s.shed++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		return
	}
	s.inner.ServeHTTP(w, r)
}

func TestClusterShedMigrationWithoutDuplicates(t *testing.T) {
	shared := t.TempDir()
	healthy, hr := newWorker(t, shared)

	br := harness.NewRunner(0.05, 2)
	br.Jobs = 8
	bst, err := resultstore.Open(shared, 32)
	if err != nil {
		t.Fatal(err)
	}
	br.Store = bst
	sh := &shedder{inner: server.New(server.Options{Runner: br})}
	busy := httptest.NewServer(sh)
	defer busy.Close()

	coord, err := New(testOptions(healthy.URL, busy.URL))
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(NewServer(coord))
	defer cs.Close()

	req := matrix()
	resp, data := postSweep(t, cs.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster sweep: %d (%s)", resp.StatusCode, data)
	}
	normalize(t, data) // fails the test on any cell error

	// Every cell migrated to the healthy worker, exactly once each.
	want := int64(len(req.Workloads) * len(req.Configs))
	if got := hr.Stats().Simulations; got != want {
		t.Fatalf("healthy worker simulated %d cells, want %d", got, want)
	}
	if got := br.Stats().Simulations; got != 0 {
		t.Fatalf("shedding worker simulated %d cells, want 0", got)
	}

	st := coord.Status()
	for _, n := range st.Nodes {
		if n.URL == victimURL(busy) {
			// Shedding is back-pressure, not failure: the node must stay
			// in the pool, alive, with its sheds counted.
			if !n.Healthy {
				t.Error("shedding worker was marked dead")
			}
			if n.Shed == 0 {
				t.Error("no sheds recorded for the 429ing worker")
			}
			if n.Failed != 0 {
				t.Errorf("shedding recorded as %d failures", n.Failed)
			}
		}
	}
	if st.Rebalances == 0 {
		t.Error("no rebalances recorded though cells migrated")
	}
	if st.CellsFailed != 0 {
		t.Errorf("%d cells failed, want 0", st.CellsFailed)
	}
}

func TestCoordinatorSimulateProxy(t *testing.T) {
	shared := t.TempDir()
	w1, _ := newWorker(t, shared)
	w2, _ := newWorker(t, shared)
	coord, err := New(testOptions(w1.URL, w2.URL))
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(NewServer(coord))
	defer cs.Close()

	post := func(url string, body any) (*http.Response, []byte) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	resp, data := post(cs.URL, server.SimulateRequest{Workload: "KM", Config: "apres"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied simulate: %d (%s)", resp.StatusCode, data)
	}
	var out server.SimulateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Workload != "KM" || out.Config != "apres" || out.Result.Cycles <= 0 {
		t.Fatalf("proxied response: %+v", out)
	}

	// The proxied answer matches a direct single-node answer, modulo wall
	// time and cache warmth.
	single, _ := newWorker(t, t.TempDir())
	dresp, ddata := post(single.URL, server.SimulateRequest{Workload: "KM", Config: "apres"})
	if dresp.StatusCode != http.StatusOK {
		t.Fatal("direct simulate failed")
	}
	var direct server.SimulateResponse
	if err := json.Unmarshal(ddata, &direct); err != nil {
		t.Fatal(err)
	}
	out.WallMS, direct.WallMS = 0, 0
	out.Cached, direct.Cached = false, false
	if !reflect.DeepEqual(out, direct) {
		t.Fatalf("proxied simulate differs from direct:\n%+v\n%+v", out, direct)
	}

	// Trace artifacts are worker-local; the coordinator refuses them.
	resp, data = post(cs.URL, server.SimulateRequest{Workload: "KM", Config: "base", Trace: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traced simulate via coordinator: %d (%s), want 400", resp.StatusCode, data)
	}

	// Validation errors surface as 400 without touching any worker.
	resp, data = post(cs.URL, server.SimulateRequest{Workload: "NOPE"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload via coordinator: %d (%s), want 400", resp.StatusCode, data)
	}
}

// TestCoordinatorSweepRejectsWhatAWorkerRejects: a sweep a worker answers
// 400 gets the same 400 from a coordinator, before any cell is dispatched —
// both validate through server.SweepRequest.Cells.
func TestCoordinatorSweepRejectsWhatAWorkerRejects(t *testing.T) {
	w, _ := newWorker(t, "")
	coord, err := New(testOptions(w.URL))
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(NewServer(coord))
	defer cs.Close()

	post := func(url, body string) (int, []byte) {
		resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, data
	}
	for _, body := range []string{
		`{"workloads":["BFS"],"configs":["base"],"engine":"warp"}`,
		`{"workloads":["BFS"],"configs":["base"],"engine":"auto","tolerance":-1}`,
		`{"workloads":["BFS"],"configs":["base"],"engine":"twin","loadStats":true}`,
	} {
		ws, wdata := post(w.URL, body)
		cst, cdata := post(cs.URL, body)
		if ws != http.StatusBadRequest || cst != http.StatusBadRequest {
			t.Errorf("%s: worker %d, coordinator %d (%s), want 400 from both", body, ws, cst, cdata)
		}
		if !bytes.Equal(wdata, cdata) {
			t.Errorf("%s: worker says %s, coordinator %s", body, wdata, cdata)
		}
	}
	for _, n := range coord.Status().Nodes {
		if n.Dispatched != 0 {
			t.Errorf("node %s was dispatched %d cells of rejected sweeps", n.URL, n.Dispatched)
		}
	}
}

// TestCoordinatorSimulateWorkerFailureIs502: a worker failure that
// exhausts the dispatch attempts is a gateway error, never a 400 — only
// request validation answers 400.
func TestCoordinatorSimulateWorkerFailureIs502(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusInternalServerError, "worker broke")
	}))
	defer broken.Close()
	opts := testOptions(broken.URL)
	opts.MaxAttempts = 1
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(NewServer(coord))
	defer cs.Close()
	resp, err := http.Post(cs.URL+"/v1/simulate", "application/json", bytes.NewReader([]byte(`{"workload":"KM"}`)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("worker 500 via coordinator: %d (%s), want 502", resp.StatusCode, data)
	}
}

func TestJoinStatusAndHealthz(t *testing.T) {
	shared := t.TempDir()
	w1, _ := newWorker(t, shared)

	// A coordinator with an empty pool is alive but not ready.
	coord, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(NewServer(coord))
	defer cs.Close()
	resp, err := http.Get(cs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-pool healthz: %d, want 503", resp.StatusCode)
	}

	postJoin := func(url string) (*http.Response, []byte) {
		buf, _ := json.Marshal(map[string]string{"url": url})
		resp, err := http.Post(cs.URL+"/v1/cluster/join", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	if resp, data := postJoin("not a url"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed join: %d (%s), want 400", resp.StatusCode, data)
	}
	if resp, data := postJoin("http://127.0.0.1:1"); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unreachable join: %d (%s), want 502", resp.StatusCode, data)
	}
	if resp, data := postJoin(w1.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d (%s)", resp.StatusCode, data)
	}

	resp, err = http.Get(cs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after join: %d, want 200", resp.StatusCode)
	}

	w2, _ := newWorker(t, shared)
	if resp, data := postJoin(w2.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("second join: %d (%s)", resp.StatusCode, data)
	}

	sr, err := http.Get(cs.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(st.Nodes) != 2 || st.LiveNodes != 2 {
		t.Fatalf("status after joins: %+v", st)
	}
	var got []string
	for _, n := range st.Nodes {
		got = append(got, n.URL)
	}
	want := []string{victimURL(w1), victimURL(w2)}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("status nodes %v, want sorted %v", got, want)
	}

	// Metrics render with the cluster prefix and per-node labels.
	mr, err := http.Get(cs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"apresd_cluster_node_up{node=",
		"apresd_cluster_sweeps_total 0",
		"apresd_cluster_rebalances_total 0",
		"apresd_cluster_merge_seconds_count 0",
	} {
		if !bytes.Contains(mdata, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
