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
	"slices"
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

// maxBatchCells caps the cells of one sub-sweep whatever PerNodeInflight
// says, so a batch's answer stays far inside maxCellBody: one answer cell
// is well under 4 KiB (its names are bounded by the resolver), and 64 of
// them under a sixteenth of the bound.
const maxBatchCells = 64

// Options configures a Coordinator.
type Options struct {
	// Nodes are the initial worker base URLs ("http://host:port"). More
	// can join at runtime via Coordinator.Join.
	Nodes []string
	// Client is the HTTP client used for dispatch and probing; nil uses a
	// fresh default client (per-request deadlines come from contexts).
	Client *http.Client
	// CellTimeout is the per-cell budget of a dispatch attempt: a request
	// carrying n cells gets n×CellTimeout; 0 means 2m.
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
	// PerNodeInflight caps the cells in flight at one worker, summed over
	// its concurrent requests, and so the cells of one sub-sweep; 0 means
	// 16.
	PerNodeInflight int
	// MaxAttempts bounds total dispatch attempts per cell; 0 derives
	// 4×pool size (minimum 8) at dispatch time.
	MaxAttempts int
}

// node is one worker's coordinator-side state. All fields except url, sem
// and turn are guarded by Coordinator.mu; sem holds one token per cell in
// flight at the worker, and turn admits one request at a time to take its
// tokens, so two requests never each hold part of what both need.
type node struct {
	url  string
	sem  chan struct{}
	turn chan struct{}

	healthy     bool
	consecFails int
	shedUntil   time.Time
	queueDepth  int
	lastErr     string

	dispatched int64 // cells sent, summed over attempts (retries landing here too)
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
		turn:    make(chan struct{}, 1),
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

// job is what dispatch delivers: items, each with a placement key and a
// class (a sweep cell's configuration). Items of one class placed on one
// node travel to it as one request.
type job struct {
	path    string
	keys    []string
	classes []string
	// body encodes the request for items, all of one class.
	body func(items []int) ([]byte, error)
	// accept checks a 200 answer for items and takes it; false makes the
	// answer malformed, which counts against the node. nil accepts any.
	accept func(items []int, data []byte) bool
	// settle records items' terminal outcome: the answering node with its
	// status and body, or the error dispatch gave up with.
	settle func(items []int, node string, status int, data []byte, err error)
}

// batch is one request of a dispatch attempt: items of one class bound for
// one node, in the order dispatch was given them.
type batch struct {
	node  *node
	items []int
}

// place groups items into batches by dispatch target and class, at most
// min(PerNodeInflight, maxBatchCells) items a batch. An item's target is
// its highest-ranked healthy, non-shedding node; an item whose target is
// not its rendezvous owner among the healthy nodes counts as a rebalance.
// When every healthy node is shedding, place returns no batches and the
// wait until the earliest shed window reopens; when no node is healthy,
// no batches and zero wait.
func (c *Coordinator) place(j *job, items []int) (batches []*batch, wait time.Duration) {
	now := time.Now()
	limit := min(c.opts.PerNodeInflight, maxBatchCells)
	c.mu.Lock()
	defer c.mu.Unlock()
	var healthy []string
	for u, nd := range c.nodes {
		if !nd.healthy {
			continue
		}
		healthy = append(healthy, u)
		if w := nd.shedUntil.Sub(now); w > 0 && (wait == 0 || w < wait) {
			wait = w
		}
	}
	for _, i := range items {
		for r, u := range Rank(j.keys[i], healthy) {
			nd := c.nodes[u]
			if nd.shedUntil.After(now) {
				continue
			}
			if r > 0 {
				c.rebalances++
			}
			k := slices.IndexFunc(batches, func(b *batch) bool {
				return b.node == nd && j.classes[b.items[0]] == j.classes[i] && len(b.items) < limit
			})
			if k < 0 {
				k = len(batches)
				batches = append(batches, &batch{node: nd})
			}
			batches[k].items = append(batches[k].items, i)
			break
		}
	}
	if len(batches) > 0 {
		return batches, 0
	}
	return nil, wait
}

// add bumps one of the counters c.mu guards by d.
func (c *Coordinator) add(n *int64, d int) {
	c.mu.Lock()
	*n += int64(d)
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

// acquire takes k of n's inflight tokens, all or none.
func (n *node) acquire(ctx context.Context, k int) error {
	select {
	case n.turn <- struct{}{}:
		defer func() { <-n.turn }()
	case <-ctx.Done():
		return ctx.Err()
	}
	for got := 0; got < k; got++ {
		select {
		case n.sem <- struct{}{}:
		case <-ctx.Done():
			n.release(got)
			return ctx.Err()
		}
	}
	return nil
}

func (n *node) release(k int) {
	for ; k > 0; k-- {
		<-n.sem
	}
}

// post sends one JSON request carrying cells cells to a node once the node
// has room for them under its inflight cap, with a deadline of CellTimeout
// per cell, returning the status and (bounded) body. Counting the cap in
// cells bounds a worker's backlog from this coordinator as if every
// request carried one cell, so a batch's last cell waits no longer inside
// the worker's per-request timeout than a lone cell could.
func (c *Coordinator) post(ctx context.Context, n *node, path string, body []byte, cells int) (int, http.Header, []byte, error) {
	if err := n.acquire(ctx, cells); err != nil {
		return 0, nil, nil, err
	}
	defer n.release(cells)
	rctx, cancel := context.WithTimeout(ctx, c.opts.CellTimeout*time.Duration(cells))
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, n.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.add(&n.dispatched, cells)
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
// node produces (both sides expand through server.SweepRequest.Cells). The
// cells one node owns under one configuration travel to it as one
// rectangular sub-sweep, whose answers map back to the cells by position.
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
	j := &job{
		path:    "/v1/sweep",
		keys:    make([]string, len(cells)),
		classes: make([]string, len(cells)),
		body: func(items []int) ([]byte, error) {
			return json.Marshal(subSweep(req, cells, items))
		},
		accept: func(items []int, data []byte) bool {
			var resp server.SweepResponse
			if json.Unmarshal(data, &resp) != nil || len(resp.Cells) != len(items) {
				return false
			}
			for k, i := range items {
				if resp.Cells[k].Workload != cells[i].Name() || resp.Cells[k].Config != cells[i].Config {
					return false
				}
			}
			for k, i := range items {
				out[i] = resp.Cells[k]
			}
			return true
		},
		settle: func(items []int, node string, status int, data []byte, err error) {
			switch {
			case err != nil:
				c.add(&c.cellsFailed, len(items))
			case status != http.StatusOK:
				err = fmt.Errorf("node %s: status %d: %s", node, status, snippet(data))
			default:
				return // accept took the answer
			}
			for _, i := range items {
				out[i] = server.SweepCell{
					Workload: cells[i].Name(),
					Config:   cells[i].Config,
					Error:    fmt.Sprintf("cluster: %v", err),
				}
			}
		},
	}
	items := make([]int, len(cells))
	for i, cell := range cells {
		j.keys[i], j.classes[i], items[i] = cell.ID(req.LoadStats), cell.Config, i
	}
	c.dispatch(ctx, j, items)
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

// subSweep builds the sub-request for cells of one configuration: their
// named workloads, then their specs, under that configuration, with the
// sweep's execution knobs. items index cells in ascending order, and
// SweepRequest.Cells lists every named workload before any spec, so a
// worker expands the sub-request back to exactly these cells in this
// order.
func subSweep(req *server.SweepRequest, cells []server.Cell, items []int) server.SweepRequest {
	sub := server.SweepRequest{
		Configs:   []string{cells[items[0]].Config},
		LoadStats: req.LoadStats,
		SMJobs:    req.SMJobs,
		Engine:    req.Engine,
		Tolerance: req.Tolerance,
	}
	for _, i := range items {
		if sp := cells[i].Spec; sp != nil {
			sub.Specs = append(sub.Specs, sp)
		} else {
			sub.Workloads = append(sub.Workloads, cells[i].Workload)
		}
	}
	return sub
}

// dispatch delivers j's items until each has a terminal answer. Every
// attempt re-ranks the pool and regroups the items still pending, so node
// death and shedding re-route them onto their current owners. A batch
// whose request fails in transport, answers 5xx, or answers a 200 that
// accept rejects counts against its node and retries after a backoff; a
// 429 takes the node out of the rotation for its penalty window without
// counting against it; any other status is terminal for every item of the
// batch — a 4xx is deterministic, every node would reject the request the
// same way. The attempt cap counts attempts per item.
func (c *Coordinator) dispatch(ctx context.Context, j *job, items []int) {
	c.deliver(ctx, j, items, 0, c.maxAttempts(), nil)
}

// deliver makes attempt number attempt (of max) for items, and through
// retry every later one; lastErr is the last failure they met.
func (c *Coordinator) deliver(ctx context.Context, j *job, items []int, attempt, max int, lastErr error) {
	if err := ctx.Err(); err != nil {
		j.settle(items, "", 0, nil, err)
		return
	}
	if attempt >= max {
		if lastErr == nil {
			lastErr = fmt.Errorf("gave up after %d attempts", max)
		}
		j.settle(items, "", 0, nil, lastErr)
		return
	}
	if attempt > 0 {
		c.add(&c.retries, len(items))
	}
	batches, wait := c.place(j, items)
	if len(batches) == 0 {
		if wait == 0 {
			j.settle(items, "", 0, nil, ErrNoNodes)
			return
		}
		// Every live worker is shedding: hold until the earliest
		// watermark window reopens, then re-rank.
		sleepCtx(ctx, wait)
		c.deliver(ctx, j, items, attempt+1, max, lastErr)
		return
	}
	var wg sync.WaitGroup
	for _, b := range batches[1:] {
		wg.Add(1)
		go func(b *batch) {
			defer wg.Done()
			c.send(ctx, j, b, attempt, max, lastErr)
		}(b)
	}
	c.send(ctx, j, batches[0], attempt, max, lastErr)
	wg.Wait()
}

// send posts one batch, classifies the node's answer and settles or
// retries the batch's items by it.
func (c *Coordinator) send(ctx context.Context, j *job, b *batch, attempt, max int, lastErr error) {
	body, err := j.body(b.items)
	if err != nil {
		j.settle(b.items, "", 0, nil, err)
		return
	}
	n := b.node
	status, hdr, data, err := c.post(ctx, n, j.path, body, len(b.items))
	switch {
	case err != nil:
		lastErr = fmt.Errorf("node %s: %w", n.url, err)
		c.noteFailure(n, err)
	case status == http.StatusTooManyRequests:
		// Load shedding is the worker protecting itself, not failing.
		c.noteShed(n, retryAfterHeader(hdr))
		c.deliver(ctx, j, b.items, attempt+1, max, lastErr)
		return
	case status >= 500:
		lastErr = fmt.Errorf("node %s: status %d: %s", n.url, status, snippet(data))
		c.noteFailure(n, lastErr)
	case status == http.StatusOK && j.accept != nil && !j.accept(b.items, data):
		lastErr = fmt.Errorf("node %s: malformed response", n.url)
		c.noteFailure(n, lastErr)
	default:
		c.noteOK(n)
		j.settle(b.items, n.url, status, data, nil)
		return
	}
	c.backoff(ctx, attempt)
	c.deliver(ctx, j, b.items, attempt+1, max, lastErr)
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
// and forwards the worker's response verbatim (status and body), through
// the same dispatch as sweep cells. A request that fails validation returns
// status 400 with its error, before any node is asked.
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
	var status int
	var data []byte
	c.dispatch(ctx, &job{
		path:    "/v1/simulate",
		keys:    []string{key},
		classes: []string{""},
		body:    func([]int) ([]byte, error) { return body, nil },
		settle: func(_ []int, _ string, s int, d []byte, e error) {
			status, data, err = s, d, e
		},
	}, []int{0})
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

// probeURL probes one base URL's /healthz and returns its health document;
// a document returned with an error is a node that answered not ready.
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
// queue depth. A node that answers not ready (draining) leaves the rotation
// at once; one that does not answer counts a failure toward FailThreshold,
// as a failed dispatch does, so a coordinator started before its workers
// does not drop them for not listening yet. A dead node that answers ready
// again is revived and resumes owning its rendezvous share (warm store
// state makes the handback cheap).
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
				n.lastErr = err.Error()
				n.consecFails++
				if h != nil || n.consecFails >= c.opts.FailThreshold {
					n.healthy = false
				}
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
