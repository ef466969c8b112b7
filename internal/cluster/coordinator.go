package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"apres/internal/server"
)

// ErrNoNodes is returned when every worker in the pool is dead (or the
// pool is empty): there is nowhere to dispatch.
var ErrNoNodes = errors.New("cluster: no live worker nodes")

// maxCellBody bounds a worker response body read (mirrors the worker's own
// request bound).
const maxCellBody = 4 << 20

// Options configures a Coordinator.
type Options struct {
	// Nodes are the initial worker base URLs ("http://host:port"). More
	// can join at runtime via Coordinator.Join.
	Nodes []string
	// Client is the HTTP client used for dispatch and probing; nil uses a
	// fresh default client (per-request deadlines come from contexts).
	Client *http.Client
	// CellTimeout bounds one dispatch attempt of one cell; 0 means 2m.
	CellTimeout time.Duration
	// ProbeTimeout bounds one /healthz probe; 0 means 5s.
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive transport failures mark a node
	// dead (a later successful probe revives it); 0 means 2.
	FailThreshold int
	// BackoffBase and BackoffMax bound the capped exponential backoff
	// (with jitter) between retries of a failed cell; 0 means 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ShedPenalty is how long a 429 without a Retry-After header keeps the
	// shedding node out of the rotation; 0 means 1s.
	ShedPenalty time.Duration
	// PerNodeInflight caps concurrent dispatches to one worker; 0 means 16.
	PerNodeInflight int
	// MaxAttempts bounds total dispatch attempts per cell; 0 derives
	// 4×pool size (minimum 8) at dispatch time.
	MaxAttempts int
}

// node is one worker's coordinator-side state. All fields except url and
// sem are guarded by Coordinator.mu; sem is itself a semaphore.
type node struct {
	url string
	sem chan struct{}

	healthy     bool
	consecFails int
	shedUntil   time.Time
	queueDepth  int
	lastErr     string

	dispatched int64 // attempts sent (including retries landing here)
	shed       int64 // 429 responses
	failed     int64 // transport errors / 5xx responses
}

// Coordinator shards sweep cells across a pool of apresd workers. Safe for
// concurrent use.
type Coordinator struct {
	opts   Options
	client *http.Client

	mu    sync.Mutex
	nodes map[string]*node

	sweeps       int64
	cellsMerged  int64
	cellsFailed  int64
	retries      int64
	rebalances   int64
	mergeSeconds *server.Histogram
}

// New builds a Coordinator over the given options. Initial nodes are added
// unprobed (marked healthy until dispatch or probing says otherwise) so a
// coordinator can start before its workers.
func New(opts Options) (*Coordinator, error) {
	if opts.CellTimeout <= 0 {
		opts.CellTimeout = 2 * time.Minute
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 5 * time.Second
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 2
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 2 * time.Second
	}
	if opts.ShedPenalty <= 0 {
		opts.ShedPenalty = time.Second
	}
	if opts.PerNodeInflight <= 0 {
		opts.PerNodeInflight = 16
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		opts:         opts,
		client:       client,
		nodes:        make(map[string]*node),
		mergeSeconds: server.NewHistogram(mergeBuckets),
	}
	for _, u := range opts.Nodes {
		if err := c.AddNode(u); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// normalizeNode validates a worker base URL and strips the trailing slash.
func normalizeNode(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("cluster: bad node URL %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("cluster: bad node URL %q: want http(s)://host[:port]", raw)
	}
	if u.Path != "" && u.Path != "/" {
		return "", fmt.Errorf("cluster: bad node URL %q: must not carry a path", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// AddNode registers a worker by base URL. Adding an existing node is a
// no-op; a re-added dead node stays dead until a probe revives it.
func (c *Coordinator) AddNode(raw string) error {
	nu, err := normalizeNode(raw)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[nu]; ok {
		return nil
	}
	c.nodes[nu] = &node{
		url:     nu,
		sem:     make(chan struct{}, c.opts.PerNodeInflight),
		healthy: true,
	}
	return nil
}

// Join probes a worker and adds it to the pool when it answers ready.
// Unlike AddNode it refuses unreachable or draining workers, so dynamic
// registration cannot poison the pool.
func (c *Coordinator) Join(ctx context.Context, raw string) error {
	nu, err := normalizeNode(raw)
	if err != nil {
		return err
	}
	if _, err := c.probeURL(ctx, nu); err != nil {
		return fmt.Errorf("cluster: node %s not ready: %w", nu, err)
	}
	if err := c.AddNode(nu); err != nil {
		return err
	}
	c.ProbeAll(ctx)
	return nil
}

// Nodes returns the registered worker URLs, sorted.
func (c *Coordinator) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sortedURLsLocked()
}

func (c *Coordinator) sortedURLsLocked() []string {
	// Deterministic ordering for status, metrics, and ranking input.
	return server.SortedKeys(c.nodes)
}

// pick selects the dispatch target for a cell key: the highest-ranked
// healthy, non-shedding node. primary reports whether that node is the
// cell's rendezvous owner among healthy nodes (false means the dispatch is
// a rebalance). When every healthy node is shedding, pick returns nil with
// the wait until the earliest shed window reopens; when no node is
// healthy, it returns nil with zero wait.
func (c *Coordinator) pick(key string) (n *node, primary bool, wait time.Duration) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var healthy []string
	for u, nd := range c.nodes {
		if nd.healthy {
			healthy = append(healthy, u)
		}
	}
	if len(healthy) == 0 {
		return nil, false, 0
	}
	ranked := Rank(key, healthy)
	minWait := time.Duration(-1)
	for i, u := range ranked {
		nd := c.nodes[u]
		if nd.shedUntil.After(now) {
			if w := nd.shedUntil.Sub(now); minWait < 0 || w < minWait {
				minWait = w
			}
			continue
		}
		return nd, i == 0, 0
	}
	if minWait < 0 {
		minWait = c.opts.ShedPenalty
	}
	return nil, false, minWait
}

// count bumps one of the counters c.mu guards.
func (c *Coordinator) count(n *int64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

func (c *Coordinator) noteOK(n *node) {
	c.mu.Lock()
	n.consecFails = 0
	n.lastErr = ""
	c.mu.Unlock()
}

func (c *Coordinator) noteShed(n *node, retryAfter time.Duration) {
	if retryAfter <= 0 {
		retryAfter = c.opts.ShedPenalty
	}
	c.mu.Lock()
	n.shed++
	n.shedUntil = time.Now().Add(retryAfter)
	c.mu.Unlock()
}

func (c *Coordinator) noteFailure(n *node, err error) {
	c.mu.Lock()
	n.failed++
	n.consecFails++
	n.lastErr = err.Error()
	if n.consecFails >= c.opts.FailThreshold {
		n.healthy = false
	}
	c.mu.Unlock()
}

func (c *Coordinator) maxAttempts() int {
	if c.opts.MaxAttempts > 0 {
		return c.opts.MaxAttempts
	}
	c.mu.Lock()
	n := len(c.nodes)
	c.mu.Unlock()
	if n*4 < 8 {
		return 8
	}
	return n * 4
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// backoff sleeps the capped exponential backoff for retry attempt n, with
// ±50% jitter so a dead node's cells do not re-dispatch in lockstep.
func (c *Coordinator) backoff(ctx context.Context, attempt int) {
	d := c.opts.BackoffBase << uint(attempt)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	sleepCtx(ctx, d)
}

// post sends one JSON request to a node under its inflight cap and the
// cell timeout, returning the status and (bounded) body.
func (c *Coordinator) post(ctx context.Context, n *node, path string, body []byte) (int, http.Header, []byte, error) {
	select {
	case n.sem <- struct{}{}:
		defer func() { <-n.sem }()
	case <-ctx.Done():
		return 0, nil, nil, ctx.Err()
	}
	rctx, cancel := context.WithTimeout(ctx, c.opts.CellTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, n.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.count(&n.dispatched)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxCellBody))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}

// snippet trims a response body for error messages.
func snippet(data []byte) string {
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// Sweep shards req's matrix across the pool and merges the cells back in
// workload-major request order — the exact order and granularity a single
// node produces (both sides expand through server.SweepRequest.Cells).
// Cells on a node that dies mid-sweep re-dispatch to survivors; cells a
// worker sheds (429) migrate without counting against that worker's
// health. A cell that exhausts every node carries a cluster error in its
// Error field; the sweep itself still completes.
func (c *Coordinator) Sweep(ctx context.Context, req *server.SweepRequest) (*server.SweepResponse, error) {
	cells, err := req.Cells()
	if err != nil {
		return nil, err
	}
	if len(c.liveNodes()) == 0 {
		return nil, ErrNoNodes
	}
	t0 := time.Now()
	out := make([]server.SweepCell, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.runCell(ctx, req, cells[i])
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.sweeps++
	c.cellsMerged += int64(len(cells))
	c.mergeSeconds.Observe(time.Since(t0).Seconds())
	c.mu.Unlock()
	return &server.SweepResponse{Cells: out}, nil
}

// runCell dispatches one cell until a worker answers it.
func (c *Coordinator) runCell(ctx context.Context, req *server.SweepRequest, cell server.Cell) server.SweepCell {
	body, err := json.Marshal(req.CellRequest(cell))
	if err != nil {
		return failedCell(cell, err)
	}
	var answer server.SweepCell
	node, status, data, err := c.dispatch(ctx, cell.ID(req.LoadStats), "/v1/sweep", body, func(data []byte) bool {
		var resp server.SweepResponse
		if json.Unmarshal(data, &resp) != nil || len(resp.Cells) != 1 {
			return false
		}
		answer = resp.Cells[0]
		return true
	})
	switch {
	case err != nil:
		c.count(&c.cellsFailed)
		return failedCell(cell, err)
	case status != http.StatusOK:
		return failedCell(cell, fmt.Errorf("node %s: status %d: %s", node, status, snippet(data)))
	}
	return answer
}

// dispatch posts body to path on the node that owns key until a worker
// gives a terminal answer, which it returns with the node's URL. The pool
// is re-ranked on every attempt, so node death and shedding re-route the
// request: transport errors, 5xx and a 200 whose body is not wellFormed
// count against the node and retry after a backoff; a 429 takes the node
// out of the rotation for its penalty window without counting against it;
// any other status is terminal — a 4xx is deterministic, every node would
// reject the request the same way.
func (c *Coordinator) dispatch(ctx context.Context, key, path string, body []byte, wellFormed func([]byte) bool) (node string, status int, data []byte, err error) {
	max := c.maxAttempts()
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		if attempt > 0 {
			c.count(&c.retries)
		}
		n, primary, wait := c.pick(key)
		if n == nil {
			if wait > 0 {
				// Every live worker is shedding: hold until the earliest
				// watermark window reopens, then re-rank.
				sleepCtx(ctx, wait)
				continue
			}
			lastErr = ErrNoNodes
			break
		}
		if !primary {
			c.count(&c.rebalances)
		}
		status, hdr, data, err := c.post(ctx, n, path, body)
		failure := err
		switch {
		case err != nil:
			lastErr = fmt.Errorf("node %s: %w", n.url, err)
		case status == http.StatusTooManyRequests:
			// Load shedding is the worker protecting itself, not failing.
			c.noteShed(n, retryAfterHeader(hdr))
			continue
		case status >= 500:
			lastErr = fmt.Errorf("node %s: status %d: %s", n.url, status, snippet(data))
			failure = lastErr
		case status == http.StatusOK && !wellFormed(data):
			lastErr = fmt.Errorf("node %s: malformed cell response", n.url)
			failure = lastErr
		default:
			c.noteOK(n)
			return n.url, status, data, nil
		}
		c.noteFailure(n, failure)
		c.backoff(ctx, attempt)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("gave up after %d attempts", max)
	}
	return "", 0, nil, lastErr
}

func failedCell(cell server.Cell, err error) server.SweepCell {
	return server.SweepCell{
		Workload: cell.Name(),
		Config:   cell.Config,
		Error:    fmt.Sprintf("cluster: %v", err),
	}
}

func retryAfterHeader(h http.Header) time.Duration {
	if h == nil {
		return 0
	}
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// Simulate routes one /v1/simulate request to the node that owns its cell
// and forwards the worker's response verbatim (status and body), with the
// same retry/rebalance machinery as sweep cells. A request that fails
// validation returns status 400 with its error, before any node is asked.
func (c *Coordinator) Simulate(ctx context.Context, req *server.SimulateRequest) (int, []byte, error) {
	key, err := req.CellID()
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	if len(c.liveNodes()) == 0 {
		return 0, nil, ErrNoNodes
	}
	_, status, data, err := c.dispatch(ctx, key, "/v1/simulate", body, func([]byte) bool { return true })
	return status, data, err
}

// liveNodes returns the URLs of currently healthy nodes.
func (c *Coordinator) liveNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for u, n := range c.nodes {
		if n.healthy {
			out = append(out, u)
		}
	}
	return out
}

// probeURL probes one base URL's /healthz and returns its health document.
func (c *Coordinator) probeURL(ctx context.Context, nu string) (*server.HealthResponse, error) {
	rctx, cancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, nu+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxCellBody))
	if err != nil {
		return nil, err
	}
	var h server.HealthResponse
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("bad health document: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &h, fmt.Errorf("status %d (%s)", resp.StatusCode, h.Status)
	}
	return &h, nil
}

// ProbeAll probes every node's readiness concurrently, updating health and
// queue depth. A dead node that answers ready again is revived and resumes
// owning its rendezvous share (warm store state makes the handback cheap).
func (c *Coordinator) ProbeAll(ctx context.Context) {
	c.mu.Lock()
	urls := c.sortedURLsLocked()
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			h, err := c.probeURL(ctx, u)
			c.mu.Lock()
			defer c.mu.Unlock()
			n, ok := c.nodes[u]
			if !ok {
				return
			}
			if err != nil {
				n.healthy = false
				n.lastErr = err.Error()
				return
			}
			n.healthy = true
			n.consecFails = 0
			n.lastErr = ""
			n.queueDepth = h.Pool.QueueDepth
		}(u)
	}
	wg.Wait()
}

// ProbeLoop probes the pool every interval until ctx is cancelled.
func (c *Coordinator) ProbeLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.ProbeAll(ctx)
		}
	}
}

// NodeStatus is one worker's row in GET /v1/cluster/status.
type NodeStatus struct {
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Shedding   bool   `json:"shedding"`
	QueueDepth int    `json:"queueDepth"`
	Dispatched int64  `json:"dispatched"`
	Shed       int64  `json:"shed"`
	Failed     int64  `json:"failed"`
	LastError  string `json:"lastError,omitempty"`
}

// Status is the GET /v1/cluster/status body.
type Status struct {
	Nodes       []NodeStatus `json:"nodes"`
	LiveNodes   int          `json:"liveNodes"`
	Sweeps      int64        `json:"sweeps"`
	CellsMerged int64        `json:"cellsMerged"`
	CellsFailed int64        `json:"cellsFailed"`
	Retries     int64        `json:"retries"`
	Rebalances  int64        `json:"rebalances"`
}

// Status snapshots the pool, nodes sorted by URL.
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Sweeps:      c.sweeps,
		CellsMerged: c.cellsMerged,
		CellsFailed: c.cellsFailed,
		Retries:     c.retries,
		Rebalances:  c.rebalances,
	}
	for _, u := range c.sortedURLsLocked() {
		n := c.nodes[u]
		if n.healthy {
			st.LiveNodes++
		}
		st.Nodes = append(st.Nodes, NodeStatus{
			URL:        n.url,
			Healthy:    n.healthy,
			Shedding:   n.shedUntil.After(now),
			QueueDepth: n.queueDepth,
			Dispatched: n.dispatched,
			Shed:       n.shed,
			Failed:     n.failed,
			LastError:  n.lastErr,
		})
	}
	return st
}
