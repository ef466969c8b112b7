// Command apressim runs one or more GPU simulations and prints their
// statistics.
//
// Usage:
//
//	apressim -workload KM -scheduler laws -prefetcher sap -apres
//	apressim -workload BFS -scheduler ccws -prefetcher str -loadstats
//	apressim -workload BFS,KM,SP -jobs 4     # fan out over a worker pool
//	apressim -workload BFS -store ~/.cache/apres/resultstore
//	apressim -workload BFS -server http://localhost:7845
//	apressim -workload SP -apres -trace sp.json   # Perfetto trace + interval CSV
//	apressim -spec examples/specs/KM.json -apres  # declarative workload spec
//	apressim -replay examples/traces/tiled_gather.csv   # trace replay
//
// With a comma-separated workload list the runs execute concurrently
// (bounded by -jobs) and print in the order given, so output stays
// deterministic. With -store, results persist in a content-addressed
// on-disk cache shared with apresd, so repeated invocations are served
// warm. With -server, simulations are delegated to a running apresd
// daemon instead of executing locally (including -spec/-replay runs,
// which POST the spec inline).
//
// -spec runs a declarative workload from a workspec JSON file and -replay
// replays a recorded memory-access trace (.csv or .jsonl); both reject a
// malformed file with exit code 1 and a line/field-precise error before
// any simulation starts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/energy"
	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/profiling"
	"apres/internal/server"
	"apres/internal/trace"
	"apres/internal/twin"
	"apres/internal/version"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// die reports a fatal error and exits 1.
func die(v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(1)
}

func main() {
	var shared harness.Flags
	shared.Register(flag.CommandLine, true, map[string]string{
		"sms":       "override number of SMs (0 = Table III value)",
		"scale":     "workload iteration scale factor",
		"jobs":      "max concurrent simulations when multiple workloads are given (0 = GOMAXPROCS)",
		"smjobs":    "shard each simulation's per-SM loop across this many goroutines (0|1 = serial engine; results are bit-identical)",
		"store":     "persistent result-store directory shared with apresd (empty = off)",
		"engine":    "serving engine: cycle-accurate (default) | twin (analytical model, microseconds) | auto (twin with cycle-accurate fallback)",
		"tolerance": "auto-engine escalation threshold on the relative IPC error bound (0 = calibration default)",
	})
	var (
		workload  = flag.String("workload", "BFS", "benchmark abbreviation, or a comma-separated list (see -list)")
		specPath  = flag.String("spec", "", "run a declarative workload spec JSON file instead of a named workload")
		replay    = flag.String("replay", "", "replay a recorded memory trace (.csv or .jsonl) instead of a named workload")
		scheduler = flag.String("scheduler", "lrr", "warp scheduler: lrr|gto|twolevel|ccws|mascar|pa|laws")
		pref      = flag.String("prefetcher", "none", "prefetcher: none|str|sld|sap")
		apres     = flag.Bool("apres", false, "enable the APRES LAWS<->SAP coupling (implies -scheduler laws -prefetcher sap)")
		l1KB      = flag.Int("l1kb", 0, "override L1 size in KiB (0 = Table III value)")
		loadstats = flag.Bool("loadstats", false, "collect per-PC load characterisation (Table I)")
		asJSON    = flag.Bool("json", false, "emit the full result as JSON instead of text")
		list      = flag.Bool("list", false, "list workloads and exit")
		serverURL = flag.String("server", "", "delegate simulations to a running apresd at this base URL")
		tracePath = flag.String("trace", "", "write a Chrome-trace/Perfetto JSON of the run to this file (single workload, local runs only)")
		traceIv   = flag.Int64("trace-interval", 1000, "interval-sampler window in cycles for -trace")
	)
	flag.Parse()

	if shared.Version {
		fmt.Println(version.Stamp())
		return
	}
	stopProf, err := profiling.Start(shared.CPUProfile, shared.MemProfile)
	if err != nil {
		die(err)
	}
	defer stopProf()
	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-6s %-18s %s\n", w.Name(), w.Category, w.Description)
		}
		return
	}

	// -spec/-replay select a declarative workload; they are mutually
	// exclusive with each other and with an explicit -workload. Parse and
	// validation errors exit 1 before any simulation starts.
	spec, err := loadSpec(*specPath, *replay)
	if err != nil {
		die(err)
	}

	// One Request per workload, and the workload's description for output.
	var reqs []harness.Request
	var wls []workloads.Workload
	if spec != nil {
		w, err := spec.Compile()
		if err != nil {
			die(err)
		}
		reqs, wls = []harness.Request{{Spec: spec}}, []workloads.Workload{w}
	} else {
		for _, n := range strings.Split(*workload, ",") {
			if n = strings.TrimSpace(n); n == "" {
				continue
			}
			w, ok := workloads.ByName(n)
			if !ok {
				die(fmt.Sprintf("unknown workload %q (try -list)", n))
			}
			reqs, wls = append(reqs, harness.Request{Workload: n}), append(wls, w)
		}
		if len(reqs) == 0 {
			die("no workload given (try -list)")
		}
	}

	var cfg config.Config
	if *apres {
		cfg = config.APRES()
	} else {
		cfg = config.Baseline().
			WithScheduler(config.SchedulerKind(*scheduler)).
			WithPrefetcher(config.PrefetcherKind(*pref))
	}
	if shared.SMs > 0 {
		cfg.NumSMs = shared.SMs
	}
	if *l1KB > 0 {
		cfg.L1SizeBytes = *l1KB * 1024
	}
	if err := cfg.Validate(); err != nil {
		die(err)
	}

	// Local runs go through a harness.Runner: identical workloads in the
	// list simulate once, concurrency is bounded by -jobs, and -store
	// shares warm results with apresd and future invocations. With -server
	// the Runner only validates the engine flags; the daemon owns the store.
	if *serverURL != "" {
		shared.Store = ""
	}
	runner, err := shared.Runner(64)
	if err != nil {
		die(err)
	}
	if shared.Engine == harness.EngineTwin && (*tracePath != "" || *loadstats) {
		die("-engine twin cannot serve -trace or -loadstats: they need a real execution (use cycle-accurate or auto)")
	}

	// A traced run executes exactly once with the tracer attached, so it
	// only makes sense for a single local workload.
	var tracer *trace.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		if len(reqs) != 1 {
			die("-trace requires exactly one workload")
		}
		if *serverURL != "" {
			die("-trace runs locally; it cannot be combined with -server")
		}
		if traceFile, err = os.Create(*tracePath); err != nil {
			die(err)
		}
		tracer = trace.New(trace.NewJSONSink(traceFile), *traceIv)
	}

	type outcome struct {
		harness.Outcome
		elapsed time.Duration
		err     error
	}
	outs := make([]outcome, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req harness.Request) {
			defer wg.Done()
			t0 := time.Now()
			req.Inline, req.LoadStats, req.Tracer = cfg, *loadstats, tracer
			if *serverURL != "" {
				outs[i].Outcome, outs[i].err = remoteSimulate(*serverURL, req, shared)
			} else {
				outs[i].Outcome, outs[i].err = runner.Do(context.Background(), req)
			}
			outs[i].elapsed = time.Since(t0)
		}(i, req)
	}
	wg.Wait()
	totalWall := time.Since(start)

	for i, o := range outs {
		if o.err != nil {
			die(fmt.Sprintf("%s: %v", wls[i].Name(), o.err))
		}
	}

	if tracer != nil {
		err := tracer.Close()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			die(fmt.Sprintf("writing trace: %v", err))
		}
		csvPath := strings.TrimSuffix(*tracePath, ".json") + ".intervals.csv"
		cf, err := os.Create(csvPath)
		if err == nil {
			err = trace.WriteIntervalCSV(cf, tracer.Samples())
			if cerr := cf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			die(fmt.Sprintf("writing interval CSV: %v", err))
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s, %d interval samples -> %s\n",
			tracer.Emitted(), *tracePath, len(tracer.Samples()), csvPath)
	}

	if *asJSON {
		type jsonResult struct {
			Workload   string
			Category   string
			Result     gpu.Result
			WallMS     int64
			Engine     string       `json:",omitempty"`
			Escalated  bool         `json:",omitempty"`
			ErrorBound *twin.Bounds `json:",omitempty"`
		}
		// Engine annotations appear only when -engine was chosen, keeping
		// default output stable for existing consumers.
		all := make([]jsonResult, len(wls))
		for i, w := range wls {
			all[i] = jsonResult{Workload: w.Name(), Category: w.Category.String(),
				Result: outs[i].Result, WallMS: outs[i].elapsed.Milliseconds()}
			if shared.Engine != "" {
				all[i].Engine, all[i].Escalated = outs[i].Engine, outs[i].Escalated
				if outs[i].Engine == harness.EngineTwin {
					all[i].ErrorBound = &outs[i].Bound
				}
			}
		}
		var doc any = all
		if len(all) == 1 {
			doc = all[0]
		}
		text, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			die(err)
		}
		fmt.Printf("%s\n", text)
		return
	}

	for i, w := range wls {
		if i > 0 {
			fmt.Println()
		}
		printResult(w, cfg, outs[i].Result, outs[i].elapsed, *loadstats)
		if shared.Engine != "" {
			switch {
			case outs[i].Engine == harness.EngineTwin:
				fmt.Printf("engine      twin (error bound ±%.1f%% IPC, ±%.1f pp L1)\n",
					outs[i].Bound.IPCRel*100, outs[i].Bound.L1HitAbs*100)
			case outs[i].Escalated:
				fmt.Println("engine      cycle-accurate (escalated from twin)")
			case outs[i].Engine != "":
				fmt.Printf("engine      %s\n", outs[i].Engine)
			}
		}
		if *serverURL != "" && outs[i].Cached {
			fmt.Println("served from the daemon's warm cache")
		}
	}
	if len(wls) > 1 {
		fmt.Fprintf(os.Stderr, "total wall time: %v (%d workloads)\n",
			totalWall.Round(time.Millisecond), len(wls))
	}
}

// loadSpec resolves the -spec/-replay flags into a validated spec (nil when
// neither flag is set). A -workload explicitly given alongside them is an
// error: the spec IS the workload.
func loadSpec(specPath, replayPath string) (*workspec.Spec, error) {
	if specPath == "" && replayPath == "" {
		return nil, nil
	}
	if specPath != "" && replayPath != "" {
		return nil, fmt.Errorf("-spec and -replay are mutually exclusive")
	}
	workloadSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			workloadSet = true
		}
	})
	if workloadSet {
		return nil, fmt.Errorf("-workload cannot be combined with -spec/-replay")
	}
	if specPath != "" {
		return workspec.ParseFile(specPath)
	}
	recs, err := workspec.ParseTraceFile(replayPath)
	if err != nil {
		return nil, err
	}
	s := workspec.SpecFromTrace(traceSpecName(replayPath), recs)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", replayPath, err)
	}
	return s, nil
}

// traceSpecName derives a valid spec name from a trace file path.
func traceSpecName(path string) string {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	name = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, name)
	if name == "" || !(name[0] >= 'a' && name[0] <= 'z' || name[0] >= 'A' && name[0] <= 'Z' || name[0] >= '0' && name[0] <= '9') {
		name = "trace-" + name
	}
	if len(name) > 64 {
		name = name[:64]
	}
	return name
}

// remoteSimulate delegates one run to an apresd daemon via POST
// /v1/simulate with the full configuration (and any spec) inline, and reads
// the answer back as the Outcome a local run would have produced.
func remoteSimulate(base string, run harness.Request, f harness.Flags) (harness.Outcome, error) {
	body, err := json.Marshal(server.SimulateRequest{
		Workload:     run.Workload,
		Spec:         run.Spec,
		ConfigInline: &run.Inline,
		LoadStats:    run.LoadStats,
		SMJobs:       f.SMJobs,
		Engine:       f.Engine,
		Tolerance:    f.Tolerance,
	})
	if err != nil {
		return harness.Outcome{}, err
	}
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return harness.Outcome{}, fmt.Errorf("apresd at %s: %w", base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return harness.Outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return harness.Outcome{}, fmt.Errorf("apresd: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return harness.Outcome{}, fmt.Errorf("apresd: HTTP %d", resp.StatusCode)
	}
	var sr server.SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return harness.Outcome{}, fmt.Errorf("apresd: bad response: %w", err)
	}
	out := harness.Outcome{Result: sr.Result, Engine: sr.Engine, Escalated: sr.Escalated, Key: sr.Key, Cached: sr.Cached}
	if sr.ErrorBound != nil {
		out.Bound = *sr.ErrorBound
	}
	return out, nil
}

func printResult(w workloads.Workload, cfg config.Config, res gpu.Result, elapsed time.Duration, loadstats bool) {
	t := &res.Total
	fmt.Printf("workload    %s (%s)\n", w.Name(), w.Category)
	fmt.Printf("config      sched=%s pref=%s apres=%v sms=%d l1=%dKB\n",
		cfg.Scheduler, cfg.Prefetcher, cfg.APRESCoupling, cfg.NumSMs, cfg.L1SizeBytes/1024)
	fmt.Printf("cycles      %d (wall %v)\n", res.Cycles, elapsed.Round(time.Millisecond))
	fmt.Printf("insts       %d  IPC %.3f  issue-stall-cycles %d\n", t.Instructions, res.IPC(), t.IssueStallCycles)
	fmt.Printf("L1          acc %d  hit %.3f  miss %.3f (cold %.3f cap+conf %.3f)\n",
		t.L1Accesses, t.L1HitRate(), t.L1MissRate(), t.ColdMissRate(), t.CapConfMissRate())
	fmt.Printf("hits        after-hit %d  after-miss %d\n", t.L1HitAfterHit, t.L1HitAfterMiss)
	fmt.Printf("mshr        merges %d (into prefetch %d)  stalls %d\n",
		t.L1MSHRMerges, t.L1PrefetchMerges, t.L1Stalls)
	fmt.Printf("prefetch    issued %d dropped %d fills %d useful %d earlyevict %d useless %d (early ratio %.3f)\n",
		t.PrefetchIssued, t.PrefetchDropped, t.PrefetchFills, t.PrefetchUseful,
		t.PrefetchEarlyEvicted, t.PrefetchUseless, t.EarlyEvictionRatio())
	fmt.Printf("L2          acc %d hits %d misses %d\n", t.L2Accesses, t.GPUL2Hits, t.L2Misses)
	fmt.Printf("dram        acc %d queue-cycles %d\n", t.DRAMAccesses, t.DRAMQueueCycles)
	fmt.Printf("memlat      %.1f cycles avg over %d reqs\n", t.AvgMemLatency(), t.MemLatencyCount)
	fmt.Printf("traffic     to-SM %d B  from-DRAM %d B\n", t.BytesToSM, t.BytesFromDRAM)
	b := energy.Default().Estimate(t)
	fmt.Printf("energy      %.1f uJ dynamic (core %.0f L1 %.0f L2 %.0f dram %.0f noc %.0f apres %.0f)\n",
		b.Dynamic()/1e6, b.Core/1e6, b.L1/1e6, b.L2/1e6, b.DRAM/1e6, b.NoC/1e6, b.APRES/1e6)
	if es := res.EngineStats; es.Epochs > 0 {
		perEpochUS := func(ns int64) float64 { return float64(ns) / 1e3 / float64(es.Epochs) }
		fmt.Printf("engine      %d workers  %d epochs (avg %.1f cycles)  coverage %.3f of executed cycles (%d idle cycles skipped between epochs)  per epoch: prepare %.1f us  advance %.1f us  barrier-wait %.1f us  drain %.1f us\n",
			es.SMJobs, es.Epochs, es.AvgEpochCycles(), es.Coverage(res.Cycles), es.SkippedCycles,
			perEpochUS(es.PrepareNS), perEpochUS(es.AdvanceNS), perEpochUS(es.BarrierWaitNS), perEpochUS(es.DrainNS))
	}
	if res.HitMaxCycles {
		fmt.Println("WARNING: run stopped at MaxCycles before kernel completion")
	}

	if loadstats && res.LoadStats != nil {
		fmt.Println("\nper-load characterisation (SM 0):")
		pcs := make([]int, 0, len(res.LoadStats))
		for pc := range res.LoadStats {
			pcs = append(pcs, int(pc))
		}
		sort.Ints(pcs)
		var totalRefs int64
		for _, pc := range pcs {
			totalRefs += res.LoadStats[arch.PC(pc)].Refs
		}
		fmt.Printf("%-8s %-7s %-7s %-9s %-10s %-8s\n", "PC", "%Load", "#L/#R", "MissRate", "Stride", "%Stride")
		for _, pc := range pcs {
			ls := res.LoadStats[arch.PC(pc)]
			stride, share := ls.DominantStride()
			fmt.Printf("%#-8x %-7.3f %-7.3f %-9.3f %-10d %-8.3f\n",
				pc, float64(ls.Refs)/float64(totalRefs), ls.LinesPerRef(), ls.MissRate(), stride, share)
		}
	}
}
