package server

// Storm test for per-request "sm_jobs": mixed serial/parallel requests must
// be indistinguishable to clients. The parallel engine is bit-identical to
// the serial one, so requests that differ only in sm_jobs deduplicate to
// one simulation, share one store key, and — across two daemons where one
// simulates everything serially and the other with 8-way SM parallelism —
// persist byte-identical store entries. Run with -race: the storm is also
// the server-side race exercise for the parallel engine.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"apres/internal/stats"
)

// stormCells are the (workload, config) pairs the storm covers; with the
// four sm_jobs values below, the cross product is the 32-request storm.
var stormCells = []struct{ app, cfg string }{
	{"BFS", "base"}, {"BFS", "apres"},
	{"KM", "base"}, {"KM", "apres"},
	{"SP", "base"}, {"SP", "apres"},
	{"NW", "base"}, {"NW", "apres"},
}

var stormJobs = []int{0, 2, 4, 8}

// stormServer returns a test server whose Runner uses 5 SMs (uneven
// partitions for every worker count above) and the given default SM
// parallelism, persisting into dir. It raises GOMAXPROCS to 8 for the rest
// of the test, so the engine's processor clamp leaves every worker count
// above to run on any host.
func stormServer(t *testing.T, dir string, smJobs int) (*httptest.Server, func()) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	s, r := newTestServer(t, dir, 0)
	r.SMs = 5
	r.SMJobs = smJobs
	ts := httptest.NewServer(s)
	return ts, ts.Close
}

func TestParallelRequestStormIdenticalResults(t *testing.T) {
	ts, done := stormServer(t, t.TempDir(), 0)
	defer done()

	type reply struct {
		cell int
		out  SimulateResponse
		body []byte
		code int
	}
	replies := make([]reply, 0, len(stormCells)*len(stormJobs))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := make(chan struct{})
	for ci := range stormCells {
		for _, jobs := range stormJobs {
			wg.Add(1)
			go func(ci, jobs int) {
				defer wg.Done()
				<-start
				c := stormCells[ci]
				resp, data := postJSON(t, ts.URL+"/v1/simulate",
					SimulateRequest{Workload: c.app, Config: c.cfg, SMJobs: jobs})
				mu.Lock()
				defer mu.Unlock()
				replies = append(replies, reply{cell: ci, code: resp.StatusCode, body: data})
			}(ci, jobs)
		}
	}
	close(start)
	wg.Wait()

	// Every reply for a cell must carry the same store key and the same
	// result, regardless of which sm_jobs value its request asked for and
	// regardless of which request won the singleflight race and actually
	// simulated.
	keys := make(map[int]string)
	results := make(map[int]string)
	for i := range replies {
		r := &replies[i]
		if r.code != http.StatusOK {
			t.Fatalf("%s/%s: HTTP %d: %s", stormCells[r.cell].app, stormCells[r.cell].cfg, r.code, r.body)
		}
		r.out = decodeSimulate(t, r.body)
		if r.out.Key == "" {
			t.Fatalf("%s/%s: response without a store key", stormCells[r.cell].app, stormCells[r.cell].cfg)
		}
		// EngineStats is execution metadata: the request that actually
		// simulated reports its epoch counts, while dedup followers served
		// from the memo see zeroes. Equivalence is over everything else.
		r.out.Result.EngineStats = stats.EngineStats{}
		res, err := json.Marshal(r.out.Result)
		if err != nil {
			t.Fatal(err)
		}
		if k, ok := keys[r.cell]; ok && k != r.out.Key {
			t.Fatalf("%s/%s: two store keys for one cell: %s vs %s",
				stormCells[r.cell].app, stormCells[r.cell].cfg, k, r.out.Key)
		}
		if prev, ok := results[r.cell]; ok && prev != string(res) {
			t.Fatalf("%s/%s: requests observed different results:\n%s\nvs\n%s",
				stormCells[r.cell].app, stormCells[r.cell].cfg, prev, res)
		}
		keys[r.cell] = r.out.Key
		results[r.cell] = string(res)
	}
	if len(keys) != len(stormCells) {
		t.Fatalf("storm covered %d cells, want %d", len(keys), len(stormCells))
	}
}

// TestSerialAndParallelDaemonsAgree is the cross-engine half: one daemon
// simulates everything serially, another with 8-way SM parallelism.
// Identical requests must produce identical store keys and byte-identical
// stored entries — sm_jobs never leaks into the persisted result.
func TestSerialAndParallelDaemonsAgree(t *testing.T) {
	serial, closeSerial := stormServer(t, t.TempDir(), 0)
	defer closeSerial()
	parallel, closeParallel := stormServer(t, t.TempDir(), 8)
	defer closeParallel()

	// fetch returns the stored entry's result payload (the envelope's
	// createdAt differs between daemons by construction).
	fetch := func(ts *httptest.Server, key string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/results/%s: HTTP %d", key, resp.StatusCode)
		}
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var entry struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(buf, &entry); err != nil {
			t.Fatalf("bad stored entry under %s: %v", key, err)
		}
		return entry.Result
	}

	for _, c := range stormCells {
		req := SimulateRequest{Workload: c.app, Config: c.cfg}
		_, sdata := postJSON(t, serial.URL+"/v1/simulate", req)
		_, pdata := postJSON(t, parallel.URL+"/v1/simulate", req)
		sout := decodeSimulate(t, sdata)
		pout := decodeSimulate(t, pdata)
		if sout.Key != pout.Key {
			t.Fatalf("%s/%s: serial and parallel daemons disagree on the store key: %s vs %s",
				c.app, c.cfg, sout.Key, pout.Key)
		}
		sEntry := fetch(serial, sout.Key)
		pEntry := fetch(parallel, pout.Key)
		if string(sEntry) != string(pEntry) {
			t.Fatalf("%s/%s: stored entries diverge between serial and parallel daemons:\n%s\nvs\n%s",
				c.app, c.cfg, sEntry, pEntry)
		}
	}

	// The parallel daemon executed real parallel runs, so its /metrics must
	// expose the epoch-coverage gauge and run counter for its worker count
	// (8 requested, clamped to the runner's 5 SMs); the serial daemon must
	// expose neither.
	resp, err := http.Get(parallel.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`apresd_epoch_coverage{smjobs="5"}`,
		`apresd_parallel_runs_total{smjobs="5"} 8`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("parallel daemon /metrics missing %q", want)
		}
	}
	resp, err = http.Get(serial.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(sbody), "apresd_epoch_coverage{") {
		t.Error("serial daemon /metrics reports an epoch-coverage gauge for a run it never made")
	}
}
