package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; unused for
	// per-layer metrics.
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them from an untraced run; README.md gives each metric's
// definition per workload (cold_s on paper_fig10 is the suite's cold wall
// time, on cluster_sweep the cold sweep, and so on).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cold_s", "s", "lower", 0.20},
	{"sim_mwinst_per_s", "Mwinst/s", "higher", 0.20},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.20},
	{"repeat_p50_ms", "ms", "lower", 0.20},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	// core — host time inside SM.Tick / HandleFill, from the instrumented
	// per-cycle driver (sim_serial).
	{"core.tick_s", "s", "lower", 0},
	{"core.tick_ns", "ns", "lower", 0},
	{"core.ticks", "count", "lower", 0},
	{"core.fill_s", "s", "lower", 0},
	{"core.share", "ratio", "lower", 0},
	// dram
	{"dram.tick_s", "s", "lower", 0},
	{"dram.share", "ratio", "lower", 0},
	{"dram.requests", "count", "lower", 0},
	{"dram.request_ns", "ns", "lower", 0},
	{"dram.tick_idle_ns", "ns", "lower", 0},
	{"dram.tick_busy_ns", "ns", "lower", 0},
	{"dram.peek_window_us", "us", "lower", 0},
	// noc
	{"noc.deliver_s", "s", "lower", 0},
	{"noc.share", "ratio", "lower", 0},
	{"noc.responses", "count", "lower", 0},
	{"noc.enqueue_ns", "ns", "lower", 0},
	{"noc.deliver_ns", "ns", "lower", 0},
	// mem
	{"mem.hit_ns", "ns", "lower", 0},
	{"mem.miss_ns", "ns", "lower", 0},
	{"mem.merge_ns", "ns", "lower", 0},
	{"mem.fill_ns", "ns", "lower", 0},
	{"mem.l2_access_ns", "ns", "lower", 0},
	// sched
	{"sched.pick_lrr_ns", "ns", "lower", 0},
	{"sched.pick_gto_ns", "ns", "lower", 0},
	{"sched.pick_ccws_ns", "ns", "lower", 0},
	{"sched.pick_laws_ns", "ns", "lower", 0},
	{"sched.laws_cache_result_ns", "ns", "lower", 0},
	// prefetch
	{"prefetch.str_access_ns", "ns", "lower", 0},
	{"prefetch.sld_access_ns", "ns", "lower", 0},
	{"prefetch.sap_group_miss_ns", "ns", "lower", 0},
	// gpu
	{"gpu.loop_self_s", "s", "lower", 0},
	{"gpu.host_ns_per_cycle", "ns", "lower", 0},
	{"gpu.base_mwinst_per_s", "Mwinst/s", "higher", 0},
	{"gpu.apres_mwinst_per_s", "Mwinst/s", "higher", 0},
	{"gpu.slowest_cell_ms", "ms", "lower", 0},
	{"gpu.new_ms", "ms", "lower", 0},
	{"gpu.allocs_per_sim", "count", "lower", 0},
	{"gpu.kb_per_sim", "KB", "lower", 0},
	{"gpu.skip_over_noskip_p50", "ratio", "lower", 0},
	{"gpu.skip_over_noskip_max", "ratio", "lower", 0},
	{"gpu.par2_over_serial", "ratio", "lower", 0},
	{"gpu.epochs", "count", "lower", 0},
	{"gpu.epoch_coverage", "ratio", "higher", 0},
	{"gpu.par2_us_per_epoch", "us", "lower", 0},
	// trace (the simulator's own cycle-level tracer)
	{"trace.emit_ns", "ns", "lower", 0},
	{"trace.traced_over_untraced", "ratio", "lower", 0},
	// kernel / workspec
	{"kernel.scaled_us", "us", "lower", 0},
	{"workspec.parse_us", "us", "lower", 0},
	{"workspec.digest_us", "us", "lower", 0},
	{"workspec.compile_us", "us", "lower", 0},
	{"workspec.trace_csv_us", "us", "lower", 0},
	// twin
	{"twin.predict_us", "us", "lower", 0},
	{"twin.result_us", "us", "lower", 0},
	{"twin.allocs_per_query", "count", "lower", 0},
	{"twin.served_ratio", "ratio", "higher", 0},
	{"twin.mape_ipc", "ratio", "lower", 0},
	// resultstore
	{"resultstore.key_us", "us", "lower", 0},
	{"resultstore.put_us", "us", "lower", 0},
	{"resultstore.get_mem_us", "us", "lower", 0},
	{"resultstore.get_disk_us", "us", "lower", 0},
	{"resultstore.entry_kb", "KB", "lower", 0},
	// harness
	{"harness.memo_hit_us", "us", "lower", 0},
	{"harness.store_hit_us", "us", "lower", 0},
	{"harness.memo_replay_ms", "ms", "lower", 0},
	{"harness.twin_serve_us", "us", "lower", 0},
	{"harness.cold_overhead_ms", "ms", "lower", 0},
	{"harness.pool_efficiency", "ratio", "higher", 0},
	{"harness.sims", "count", "lower", 0},
	{"harness.cache_hits", "count", "higher", 0},
	{"harness.store_hits", "count", "higher", 0},
	{"harness.dedup_waits", "count", "lower", 0},
	{"harness.twin_escalations", "count", "lower", 0},
	// paper — the model's error against the paper's Figure 10 (simulated,
	// repeats exactly; paper_fig10).
	{"paper.fig10_apres_gap_pp", "pp", "lower", 0},
	{"paper.fig10_ccws_str_gap_pp", "pp", "lower", 0},
	{"paper.fig10_order_violations", "count", "lower", 0},
	// server
	{"server.handler_memo_us", "us", "lower", 0},
	{"server.handler_twin_us", "us", "lower", 0},
	{"server.handler_spec_us", "us", "lower", 0},
	{"server.handler_results_us", "us", "lower", 0},
	{"server.handler_sweep_us", "us", "lower", 0},
	{"server.handler_health_us", "us", "lower", 0},
	{"server.handler_metrics_us", "us", "lower", 0},
	{"server.handler_cold_ms", "ms", "lower", 0},
	{"server.transport_us", "us", "lower", 0},
	{"server.encode_self_us", "us", "lower", 0},
	{"server.resp_kb_memo", "KB", "lower", 0},
	{"server.tail_ms", "ms", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.slo_rate_rps", "1/s", "higher", 0},
	// cluster
	{"cluster.overhead_us_per_cell", "us", "lower", 0},
	{"cluster.warm_tail_ms", "ms", "lower", 0},
	{"cluster.single_cold_s", "s", "lower", 0},
	{"cluster.single_warm_ms", "ms", "lower", 0},
	{"cluster.cold_speedup", "ratio", "higher", 0},
	{"cluster.balance", "ratio", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.rebalances", "count", "lower", 0},
	{"cluster.cells_failed", "count", "lower", 0},
	{"cluster.rank_ns", "ns", "lower", 0},
	// bench — the benchmark's own validity
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.late_p99_ms", "ms", "lower", 0},
	{"bench.fail_ratio", "ratio", "lower", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
}

// percentile returns the p-quantile (0..1) of xs by nearest rank; xs need
// not be sorted. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentile picks the highest of p50/p90/p99/p99.9 that still has at
// least ten samples beyond it, so a reported tail is never set by a handful
// of outliers. With fewer than twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 0.5
	// One sample in every lies beyond p, so ten do once n reaches 10*every.
	for _, t := range []struct {
		p     float64
		every int
	}{{0.9, 10}, {0.99, 100}, {0.999, 1000}} {
		if n >= 10*t.every {
			best = t.p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// nsPerOp times rounds batches of f(batch) and returns the median cost of
// one operation in nanoseconds. f must perform exactly n operations.
func nsPerOp(rounds, batch int, f func(n int)) float64 {
	f(batch) // warm caches and grow slices before timing
	per := make([]float64, rounds)
	for i := range per {
		t0 := time.Now()
		f(batch)
		per[i] = float64(time.Since(t0)) / float64(batch)
	}
	return median(per)
}

func fmtMetric(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
