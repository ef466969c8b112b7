// The coordinator's /metrics families, written through the worker's
// exposition writer in a deterministic order (nodes sorted by URL) so tests
// can assert exact bytes.
package cluster

import (
	"time"

	"apres/internal/server"
)

// mergeBuckets are the sweep merge-latency histogram bounds in seconds
// (wall time from dispatch fan-out to the last merged cell; a +Inf bucket
// is implicit).
var mergeBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// renderMetrics writes the coordinator's own families: per-node state in
// URL order, then the dispatch counters and the merge-latency histogram.
func (c *Coordinator) renderMetrics(e *server.Exposition) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()

	urls := c.sortedURLsLocked()
	perNode := func(name, kind, help string, v func(*node) int64) {
		e.Family(name, kind, help)
		for _, u := range urls {
			e.Sample(v(c.nodes[u]), "node", u)
		}
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	perNode("apresd_cluster_node_up", "gauge", "Worker liveness (1 healthy, 0 dead) by node.",
		func(n *node) int64 { return flag(n.healthy) })
	perNode("apresd_cluster_node_shedding", "gauge", "Worker shed state (1 inside a 429 penalty window) by node.",
		func(n *node) int64 { return flag(n.shedUntil.After(now)) })
	perNode("apresd_cluster_node_queue_depth", "gauge", "Last probed worker queue depth by node.",
		func(n *node) int64 { return int64(n.queueDepth) })
	perNode("apresd_cluster_cells_dispatched_total", "counter", "Dispatch attempts (including retries) by node.",
		func(n *node) int64 { return n.dispatched })
	perNode("apresd_cluster_cells_shed_total", "counter", "429 load-shed responses by node.",
		func(n *node) int64 { return n.shed })
	perNode("apresd_cluster_node_failures_total", "counter", "Transport errors and 5xx responses by node.",
		func(n *node) int64 { return n.failed })

	e.Counter("apresd_cluster_retries_total", "Cell dispatch retries after failure or shedding.", c.retries)
	e.Counter("apresd_cluster_rebalances_total", "Cells dispatched to a node other than their rendezvous owner.", c.rebalances)
	e.Counter("apresd_cluster_sweeps_total", "Completed cluster sweeps.", c.sweeps)
	e.Counter("apresd_cluster_cells_merged_total", "Cells merged into completed sweep responses.", c.cellsMerged)
	e.Counter("apresd_cluster_cells_failed_total", "Cells that exhausted every node and returned a cluster error.", c.cellsFailed)
	e.Family("apresd_cluster_merge_seconds", "histogram", "Sweep wall time from fan-out to last merged cell.")
	e.Histogram(c.mergeSeconds)
}
