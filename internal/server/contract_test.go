package server_test

// The serving contract, byte for byte: one fixed request sequence against a
// worker daemon and against a coordinator over two workers, every response
// compared with a golden file under testdata/contract. The goldens were
// recorded before Runner.Do and the shared serving skeleton existed, so they
// say what a refactor of the run path, the HTTP skeleton or the metrics
// writer may not change. Per-execution fields are blanked first: wallMs,
// uptimeSeconds, the store directory, and the finite buckets and sums of the
// two wall-time histograms.
//
// Re-record with: go test ./internal/server -run TestContract -update-contract

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"apres/internal/cluster"
	"apres/internal/config"
	"apres/internal/harness"
	"apres/internal/resultstore"
	"apres/internal/server"
	"apres/internal/workspec"
)

var updateContract = flag.Bool("update-contract", false, "re-record testdata/contract")

var (
	wallRE   = regexp.MustCompile(`"(wallMs|uptimeSeconds)": \d+`)
	timingRE = regexp.MustCompile(`(?m)^(apresd\w*_seconds_(?:bucket\{.*le="[0-9.e+-]+"\}|sum(?:\{[^}]*\})?)) .*$`)
)

// blank removes what legitimately differs between two executions.
func blank(body []byte, storeDir string) []byte {
	body = wallRE.ReplaceAll(body, []byte(`"$1": 0`))
	body = timingRE.ReplaceAll(body, []byte("$1 T"))
	if storeDir != "" {
		body = bytes.ReplaceAll(body, []byte(storeDir), []byte("STORE"))
	}
	return body
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "contract", name)
	if *updateContract {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// contractRunner is a tiny-scale Runner with one simulation slot, so pool
// gauges and counters repeat exactly.
func contractRunner(t *testing.T, storeDir string) *harness.Runner {
	t.Helper()
	r := harness.NewRunner(0.05, 2)
	r.Jobs = 1
	if storeDir != "" {
		st, err := resultstore.Open(storeDir, 32)
		if err != nil {
			t.Fatal(err)
		}
		r.Store = st
	}
	return r
}

func do(t *testing.T, method, url string, body any) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	return data
}

var contractSweep = server.SweepRequest{Workloads: []string{"BFS", "KM"}, Configs: []string{"base", "apres"}}

func TestContractWorker(t *testing.T) {
	// simulate_inline_config.json asks for sm_jobs 2; its EngineStats and
	// the metrics' smjobs="2" series need two processors for New's clamp.
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	storeDir := t.TempDir()
	ts := httptest.NewServer(server.New(server.Options{
		Runner:   contractRunner(t, storeDir),
		TraceDir: t.TempDir(),
	}))
	defer ts.Close()

	spec, err := workspec.ParseFile(filepath.Join("..", "..", "examples", "specs", "pointer_chase.json"))
	if err != nil {
		t.Fatal(err)
	}
	gto := config.Baseline().WithScheduler(config.SchedGTO)
	steps := []struct {
		golden string
		req    server.SimulateRequest
	}{
		{"simulate_named.json", server.SimulateRequest{Workload: "SP", Config: "apres"}},
		{"simulate_inline_config.json", server.SimulateRequest{Workload: "BFS", ConfigInline: &gto, SMJobs: 2}},
		{"simulate_inline_spec.json", server.SimulateRequest{Spec: spec, Config: "base"}},
		{"simulate_twin.json", server.SimulateRequest{Workload: "KM", Config: "gto", Engine: harness.EngineTwin}},
		{"simulate_auto_escalated.json", server.SimulateRequest{Workload: "NW", Config: "laws", Engine: harness.EngineAuto, Tolerance: 1e-6}},
		{"simulate_traced.json", server.SimulateRequest{Workload: "SP", Config: "base", Trace: true}},
		{"simulate_named_repeat.json", server.SimulateRequest{Workload: "SP", Config: "apres"}},
	}
	for _, s := range steps {
		checkGolden(t, s.golden, blank(do(t, "POST", ts.URL+"/v1/simulate", s.req), storeDir))
	}
	checkGolden(t, "sweep.json", blank(do(t, "POST", ts.URL+"/v1/sweep", contractSweep), storeDir))
	checkGolden(t, "worker_healthz.json", blank(do(t, "GET", ts.URL+"/healthz", nil), storeDir))
	checkGolden(t, "worker_metrics.txt", blank(do(t, "GET", ts.URL+"/metrics", nil), storeDir))
}

// TestContractStorelessTwinAfterExact pins the one response this contract
// lets change: on a daemon without a store, a twin answer for a cell the
// exact memo already holds is computed fresh, so it is not cached.
func TestContractStorelessTwinAfterExact(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{Runner: contractRunner(t, "")}))
	defer ts.Close()
	do(t, "POST", ts.URL+"/v1/simulate", server.SimulateRequest{Workload: "SP", Config: "base"})
	checkGolden(t, "storeless_twin_after_exact.json", blank(do(t, "POST", ts.URL+"/v1/simulate",
		server.SimulateRequest{Workload: "SP", Config: "base", Engine: harness.EngineTwin}), ""))
}

func TestContractCoordinator(t *testing.T) {
	// Rendezvous hashing ranks nodes by URL, so the workers get fixed names
	// and a dialer maps them to this run's loopback ports: the cell-to-node
	// split, and with it every per-node counter, then repeats exactly.
	storeDir := t.TempDir()
	addrs := map[string]string{}
	var nodes []string
	for _, name := range []string{"worker-0.test:80", "worker-1.test:80"} {
		ts := httptest.NewServer(server.New(server.Options{Runner: contractRunner(t, storeDir)}))
		defer ts.Close()
		addrs[name] = ts.Listener.Addr().String()
		nodes = append(nodes, "http://"+name)
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return (&net.Dialer{}).DialContext(ctx, network, addrs[addr])
		},
	}}
	defer client.CloseIdleConnections()
	coord, err := cluster.New(cluster.Options{Nodes: nodes, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(cluster.NewServer(coord))
	defer cs.Close()

	// The merged sweep and the proxied simulate are held to the worker's
	// own goldens: a coordinator is indistinguishable from one worker.
	checkCold := func(name string, got []byte) {
		t.Helper()
		if *updateContract {
			return // TestContractWorker records these
		}
		checkGolden(t, name, got)
	}
	checkCold("sweep.json", blank(do(t, "POST", cs.URL+"/v1/sweep", contractSweep), storeDir))
	checkCold("simulate_named.json", blank(do(t, "POST", cs.URL+"/v1/simulate",
		server.SimulateRequest{Workload: "SP", Config: "apres"}), storeDir))
	checkGolden(t, "coordinator_status.json", do(t, "GET", cs.URL+"/v1/cluster/status", nil))
	checkGolden(t, "coordinator_healthz.json", do(t, "GET", cs.URL+"/healthz", nil))
	metrics := blank(do(t, "GET", cs.URL+"/metrics", nil), storeDir)
	if !strings.Contains(string(metrics), `apresd_cluster_merge_seconds_bucket{le="0.01"} T`) {
		t.Fatalf("merge histogram not blanked:\n%s", metrics)
	}
	checkGolden(t, "coordinator_metrics.txt", metrics)
}
