package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"apres/internal/cluster"
	"apres/internal/server"
)

// clusterWorkers is the number of worker daemons behind the coordinator.
const clusterWorkers = 2

// nodeSpan is one handler span kept by the benchmark's middleware around a
// worker or the coordinator.
type nodeSpan struct {
	node  string
	start time.Time
	dur   time.Duration
}

// testCluster is a coordinator over in-process workers, all on loopback. The
// workers share one store and have one simulation slot each, like small
// apresd nodes.
type testCluster struct {
	url     string // the coordinator's
	coord   *cluster.Coordinator
	client  *http.Client
	servers []*http.Server
	dones   []chan error

	mu    sync.Mutex
	spans []nodeSpan // traced runs only
}

// startCluster starts workers worker daemons over a store in dir and a
// coordinator over them. The coordinator knows the workers by fixed names
// (worker-0.bench, ...), which a dialer maps to their loopback ports:
// rendezvous hashing ranks nodes by URL, so fixed names make the cell-to-node
// assignment, and with it the cold sweep's critical path, the same in every
// run. keep says whether handler spans are kept.
func startCluster(e *env, scale float64, workers int, dir string, keep bool) (*testCluster, error) {
	tc := &testCluster{}
	wrap := func(node string, h http.Handler) http.Handler {
		if !keep {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			tc.mu.Lock()
			tc.spans = append(tc.spans, nodeSpan{node, t0, time.Since(t0)})
			tc.mu.Unlock()
		})
	}
	addrs := make(map[string]string)
	var nodes []string
	for i := 0; i < workers; i++ {
		r, err := newRunner(scale, e.size.sms, 1, dir)
		if err != nil {
			tc.stop()
			return nil, err
		}
		name := fmt.Sprintf("worker-%d.bench:80", i)
		hs, url, done, err := serveOn(wrap(name, server.New(server.Options{Runner: r})))
		if err != nil {
			tc.stop()
			return nil, err
		}
		tc.servers, tc.dones = append(tc.servers, hs), append(tc.dones, done)
		addrs[name] = url[len("http://"):]
		nodes = append(nodes, "http://"+name)
	}
	var dialer net.Dialer
	transport := &http.Transport{
		MaxIdleConnsPerHost: 16,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}
	tc.client = &http.Client{Transport: transport, Timeout: 5 * time.Minute}
	coord, err := cluster.New(cluster.Options{Nodes: nodes, Client: tc.client})
	if err != nil {
		tc.stop()
		return nil, err
	}
	tc.coord = coord
	hs, url, done, err := serveOn(wrap("coordinator", cluster.NewServer(coord)))
	if err != nil {
		tc.stop()
		return nil, err
	}
	tc.servers, tc.dones = append(tc.servers, hs), append(tc.dones, done)
	tc.url = url
	return tc, nil
}

// stop shuts every server of the cluster down and waits for each.
func (tc *testCluster) stop() {
	if tc.client != nil {
		tc.client.CloseIdleConnections()
	}
	for i := len(tc.servers) - 1; i >= 0; i-- {
		shutdown(tc.servers[i], tc.dones[i])
	}
	tc.servers, tc.dones = nil, nil
}

// sweep POSTs the matrix to the coordinator and returns the decoded cells
// with the wall time the client saw.
func (tc *testCluster) sweep(e *env, body []byte) (*server.SweepResponse, time.Time, time.Duration, error) {
	t0 := time.Now()
	resp, err := tc.client.Post(tc.url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		e.op(false)
		return nil, t0, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	took := time.Since(t0)
	ok := err == nil && resp.StatusCode == http.StatusOK
	e.op(ok)
	if !ok {
		return nil, t0, took, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	var out server.SweepResponse
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, t0, took, err
	}
	for _, c := range out.Cells {
		e.checkf(c.Error == "", "sweep cell %s/%s: %s", c.Workload, c.Config, c.Error)
	}
	return &out, t0, took, nil
}

// sameSweep compares two sweep answers after zeroing what legitimately
// differs: each cell's wall time and cached flag.
func sameSweep(a, b *server.SweepResponse) bool {
	strip := func(r *server.SweepResponse) []server.SweepCell {
		cells := append([]server.SweepCell(nil), r.Cells...)
		for i := range cells {
			cells[i].WallMS, cells[i].Cached = 0, false
		}
		return cells
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

// clusterRep is one cold sweep on fresh workers and a fresh store, then warm
// sweeps of the same matrix.
type clusterRep struct {
	cold     time.Duration
	coldResp *server.SweepResponse
	warmMS   []float64
	status   cluster.Status
	overhead []float64 // traced: warm sweep minus its longest worker handler span, us
}

func clusterRepetition(e *env, workers int, body []byte, warmFor time.Duration, keep bool) (clusterRep, error) {
	var rep clusterRep
	dir, err := e.dir("cluster-store")
	if err != nil {
		return rep, err
	}
	tc, err := startCluster(e, e.size.scale, workers, dir, keep)
	if err != nil {
		return rep, err
	}
	defer tc.stop()
	resp, t0, took, err := tc.sweep(e, body)
	if err != nil {
		return rep, err
	}
	rep.cold, rep.coldResp = took, resp
	if keep {
		tc.emit(e, "cold", t0, took)
	}
	start := time.Now()
	for i := 0; i < e.size.warmSweeps || time.Since(start) < warmFor; i++ {
		warm, t0, took, err := tc.sweep(e, body)
		if err != nil {
			return rep, err
		}
		e.checkf(sameSweep(resp, warm), "warm sweep %d differs from the cold sweep", i)
		rep.warmMS = append(rep.warmMS, ms(took))
		if keep {
			rep.overhead = append(rep.overhead, us(took-tc.emit(e, "warm", t0, took)))
		}
	}
	rep.status = tc.coord.Status()
	return rep, nil
}

// emit writes the spans of one sweep — client.request, the coordinator's
// handler under it, the workers' handlers under that, attributed by
// containment since one sweep is in flight at a time — and returns the
// longest worker handler span.
func (tc *testCluster) emit(e *env, label string, t0 time.Time, took time.Duration) time.Duration {
	tc.mu.Lock()
	spans := tc.spans
	tc.spans = nil
	tc.mu.Unlock()
	client := e.spans.record("client.request", 0, 0, label, t0, took)
	parent := client
	var longest time.Duration
	for _, s := range spans {
		if s.node == "coordinator" {
			parent = e.spans.record("cluster.handler", client, 0, label, s.start, s.dur)
		}
	}
	for _, s := range spans {
		if s.node != "coordinator" {
			e.spans.record("server.handler", parent, 0, s.node, s.start, s.dur)
			longest = max(longest, s.dur)
		}
	}
	return longest
}

// runCluster is cluster_sweep: one client, a closed loop of sweeps through
// the coordinator.
func runCluster(e *env) error {
	e.under = nproc() < clusterWorkers
	body := jsonBody(server.SweepRequest{Workloads: simApps, Configs: simConfigs})
	cells := len(simApps) * len(simConfigs)

	var warm *testCluster
	stopWarm := func() {
		if warm != nil {
			warm.stop()
		}
	}
	err := e.timeSetup(func() error {
		// Warm-up: the same sweep at a small scale through a throwaway
		// cluster, which also proves the ports and the dialer work.
		dir, err := e.dir("cluster-warm")
		if err != nil {
			return err
		}
		if warm, err = startCluster(e, warmScale, clusterWorkers, dir, false); err != nil {
			return err
		}
		_, _, _, err = warm.sweep(e, body)
		return err
	}, stopWarm)
	stopWarm()
	if err != nil {
		return err
	}

	// Cold repetitions take the time budget; each is followed by warm sweeps
	// for a tenth of it.
	var reps []clusterRep
	start := time.Now()
	for len(reps) == 0 || (!e.traced() && time.Since(start)+time.Since(start)/time.Duration(len(reps)) <= e.budget) {
		rep, err := clusterRepetition(e, clusterWorkers, body, e.budget/10, e.traced())
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	}

	// The reference: the same sweep on one worker with a store of its own.
	single, err := clusterRepetition(e, 1, body, 0, false)
	if err != nil {
		return err
	}
	var coldS, warmMS []float64
	for i, rep := range reps {
		e.checkf(sameSweep(single.coldResp, rep.coldResp), "repetition %d: the merged sweep differs from the same sweep on one worker", i)
		coldS = append(coldS, rep.cold.Seconds())
		warmMS = append(warmMS, rep.warmMS...)
	}

	// Simulated work of the matrix, for the throughput metrics. A sweep cell
	// carries cycles and IPC; their product is the instruction count.
	var cycles, insts int64
	for _, c := range single.coldResp.Cells {
		cycles += c.Cycles
		insts += int64(math.Round(c.IPC * float64(c.Cycles)))
	}
	cold := median(coldS)
	e.set("cold_s", cold, len(coldS))
	e.set("sim_mwinst_per_s", float64(insts)/1e6/cold, len(coldS))
	e.set("sim_mcycles_per_s", float64(cycles)/1e6/cold, len(coldS))
	e.set("repeat_p50_ms", median(warmMS), len(warmMS))
	tailP := tailPercentile(len(warmMS))
	e.set("cluster.warm_tail_ms", percentile(warmMS, tailP), len(warmMS))
	e.note("warm_tail_percentile", fmt.Sprintf("p%g", 100*tailP))

	if e.traced() {
		rep := reps[0]
		e.set("cluster.overhead_us_per_cell", median(rep.overhead)/float64(cells), len(rep.overhead))
		e.set("cluster.single_cold_s", single.cold.Seconds(), 1)
		e.set("cluster.single_warm_ms", median(single.warmMS), len(single.warmMS))
		e.set("cluster.cold_speedup", single.cold.Seconds()/rep.cold.Seconds(), 1)
		var most, total int64
		for _, n := range rep.status.Nodes {
			most, total = max(most, n.Dispatched), total+n.Dispatched
		}
		if total > 0 {
			e.set("cluster.balance", float64(most)*float64(len(rep.status.Nodes))/float64(total), len(rep.status.Nodes))
		}
		e.set("cluster.retries", float64(rep.status.Retries), 1)
		e.set("cluster.rebalances", float64(rep.status.Rebalances), 1)
		e.set("cluster.cells_failed", float64(rep.status.CellsFailed), 1)
		nodes := []string{"http://worker-0.bench:80", "http://worker-1.bench:80", "http://worker-2.bench:80"}
		key := server.Cell{Workload: "BFS", Config: "apres"}.ID(false)
		e.set("cluster.rank_ns", nsPerOp(compRounds, 2000, func(n int) {
			for i := 0; i < n; i++ {
				cluster.Rank(key, nodes)
			}
		}), compRounds)
		// The coordinator adds spans but no work: the warm sweep with the
		// middleware on against the same sweep with it off.
		bare, err := clusterRepetition(e, clusterWorkers, body, 0, false)
		if err != nil {
			return err
		}
		e.set("bench.trace_overhead_ratio", median(rep.warmMS)/median(bare.warmMS), len(rep.warmMS))
	}
	return nil
}
