// Command experiments regenerates the APRES paper's tables and figures.
//
// Usage:
//
//	experiments                 # run everything at full scale
//	experiments -only fig10     # one experiment
//	experiments -scale 0.25     # smaller workloads (quick look)
//	experiments -jobs 8         # simulate up to 8 runs in parallel
//	experiments > results.txt   # capture for EXPERIMENTS.md
//	experiments -specs examples/specs            # sweep declarative specs
//	experiments -specs d -spec-configs base,apres,ccws
//
// Results are byte-identical whatever -jobs is: parallelism only changes
// how fast the suite runs (progress/timing goes to stderr, results to
// stdout).
//
// With -specs, the paper experiments are replaced by an IPC sweep over
// every workload-spec JSON file in the given directory, under the
// -spec-configs named configurations (default base,apres). Every spec file
// and every configuration name is validated before any simulation starts;
// a malformed spec aborts the whole run with exit code 1 and a line- and
// field-precise error, never a partial sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"apres/internal/config"
	"apres/internal/harness"
	"apres/internal/profiling"
	"apres/internal/version"
	"apres/internal/workspec"
)

// experimentIDs lists every experiment in output order; -only values are
// validated against it so a typo fails fast instead of silently selecting
// nothing.
var experimentIDs = []string{"table1", "table2", "fig2", "fig3", "fig4",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}

// die reports a fatal error and exits 1.
func die(v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(1)
}

func main() {
	var shared harness.Flags
	shared.Register(flag.CommandLine, true, map[string]string{
		"scale":     "workload iteration scale",
		"sms":       "override SM count (0 = Table III's 15)",
		"jobs":      "max concurrent simulations (0 = GOMAXPROCS)",
		"smjobs":    "shard each simulation's per-SM loop across this many goroutines (0|1 = serial engine; results are bit-identical)",
		"store":     "persistent result-store directory shared with apresd (empty = off)",
		"engine":    "serving engine for every run: cycle-accurate (default) | twin (analytical, approximate figures in milliseconds) | auto (twin with cycle-accurate fallback)",
		"tolerance": "auto-engine escalation threshold on the relative IPC error bound (0 = calibration default)",
	})
	var (
		only     = flag.String("only", "", "comma-separated experiment ids ("+strings.Join(experimentIDs, ",")+"); empty = all")
		format   = flag.String("format", harness.FormatText, "figure output format: text|csv|md")
		specDir  = flag.String("specs", "", "sweep every workload-spec JSON file in this directory instead of running the paper experiments")
		specCfgs = flag.String("spec-configs", "base,apres", "comma-separated named configurations for the -specs sweep")
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

	known := map[string]bool{}
	for _, id := range experimentIDs {
		known[id] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				die(fmt.Sprintf("unknown experiment id %q (known: %s)", id, strings.Join(experimentIDs, ",")))
			}
			want[id] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	switch *format {
	case harness.FormatText, harness.FormatCSV, harness.FormatMarkdown:
	default:
		die(fmt.Sprintf("unknown format %q (want text|csv|md)", *format))
	}

	r, err := shared.Runner(256)
	if err != nil {
		die(err)
	}

	if *specDir != "" {
		if *only != "" {
			die("-only selects paper experiments; it does not apply to a -specs sweep")
		}
		runSpecSweep(r, *specDir, *specCfgs, *format)
		return
	}

	all := harness.AllApps()
	memApps := harness.MemoryIntensiveApps()
	start := time.Now()

	type experiment struct {
		id  string
		run func() (string, error)
	}
	fig := func(f func([]string) (*harness.Chart, error), apps []string) func() (string, error) {
		return func() (string, error) {
			c, err := f(apps)
			if err != nil {
				return "", err
			}
			return c.RenderAs(*format)
		}
	}
	experiments := []experiment{
		{"table1", func() (string, error) {
			rows, err := r.TableI(memApps)
			return harness.RenderTableI(rows), err
		}},
		{"table2", func() (string, error) {
			return harness.RenderTableII(harness.TableII(config.APRES())), nil
		}},
		{"fig2", fig(r.Fig2, all)},
		{"fig3", fig(r.Fig3, memApps)},
		{"fig4", fig(r.Fig4, memApps)},
		{"fig10", fig(r.Fig10, all)},
		{"fig11", fig(r.Fig11, all)},
		{"fig12", fig(r.Fig12, all)},
		{"fig13", fig(r.Fig13, all)},
		{"fig14", fig(r.Fig14, all)},
		{"fig15", fig(r.Fig15, all)},
	}

	for _, e := range experiments {
		if !sel(e.id) {
			continue
		}
		before := r.Stats()
		t0 := time.Now()
		out, err := e.run()
		if err != nil {
			die(fmt.Sprintf("%s: %v", e.id, err))
		}
		d := r.Stats().Sub(before)
		// With an engine selected, twin-served runs are reported as their
		// own column instead of disappearing into the simulator cache-hit
		// counter — the per-experiment line shows exactly which engine did
		// the work.
		if r.EngineDefault != "" {
			fmt.Fprintf(os.Stderr, "%-7s wall %-10v sims %-4d twin %-4d escalated %-4d cache hits %-4d store hits %d\n",
				e.id, time.Since(t0).Round(time.Millisecond), d.Simulations, d.TwinServed, d.TwinEscalations, d.CacheHits, d.StoreHits)
		} else {
			fmt.Fprintf(os.Stderr, "%-7s wall %-10v sims %-4d cache hits %-4d dedup waits %-4d store hits %d\n",
				e.id, time.Since(t0).Round(time.Millisecond), d.Simulations, d.CacheHits, d.DedupWaits, d.StoreHits)
		}
		fmt.Printf("== %s ==\n%s\n", e.id, out)
	}
	effJobs := r.Jobs
	if effJobs <= 0 {
		effJobs = runtime.GOMAXPROCS(0)
	}
	total := r.Stats()
	if r.EngineDefault != "" {
		fmt.Fprintf(os.Stderr, "total wall time: %v (jobs %d, engine %s: %d sims, %d twin-served, %d escalated, %d cache hits, %d store hits)\n",
			time.Since(start).Round(time.Millisecond), effJobs, r.EngineDefault, total.Simulations, total.TwinServed, total.TwinEscalations, total.CacheHits, total.StoreHits)
	} else {
		fmt.Fprintf(os.Stderr, "total wall time: %v (jobs %d, %d sims, %d cache hits, %d dedup waits, %d store hits)\n",
			time.Since(start).Round(time.Millisecond), effJobs, total.Simulations, total.CacheHits, total.DedupWaits, total.StoreHits)
	}
}

// runSpecSweep validates every spec file in dir and every configuration
// name, then sweeps specs x configs and prints an IPC chart. All validation
// happens before the first simulation: any malformed spec or unknown
// configuration aborts the whole run with exit code 1.
func runSpecSweep(r *harness.Runner, dir, cfgList, format string) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		die(err)
	}
	if len(paths) == 0 {
		die(fmt.Sprintf("no workload-spec files (*.json) in %s", dir))
	}
	sort.Strings(paths)

	var cfgNames []string
	for _, c := range strings.Split(cfgList, ",") {
		if c = strings.TrimSpace(c); c != "" {
			cfgNames = append(cfgNames, c)
		}
	}
	if len(cfgNames) == 0 {
		die("-spec-configs names no configurations")
	}

	// Validate everything up front; report every problem, run nothing on
	// failure.
	bad := false
	for _, c := range cfgNames {
		if _, err := harness.NamedConfig(c); err != nil {
			fmt.Fprintln(os.Stderr, err)
			bad = true
		}
	}
	specs := make([]*workspec.Spec, 0, len(paths))
	seen := map[string]string{}
	for _, p := range paths {
		s, err := workspec.ParseFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			bad = true
			continue
		}
		if _, err := s.Compile(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p, err)
			bad = true
			continue
		}
		if prev, dup := seen[s.Name]; dup {
			fmt.Fprintf(os.Stderr, "%s: spec name %q already used by %s\n", p, s.Name, prev)
			bad = true
			continue
		}
		seen[s.Name] = p
		specs = append(specs, s)
	}
	if bad {
		os.Exit(1)
	}

	t0 := time.Now()
	chart, err := r.SpecSweep(context.Background(), specs, cfgNames)
	if err != nil {
		die(err)
	}
	out, err := chart.RenderAs(format)
	if err != nil {
		die(err)
	}
	stats := r.Stats()
	if r.EngineDefault != "" {
		fmt.Fprintf(os.Stderr, "spec sweep: %d specs x %d configs, wall %v (engine %s: %d sims, %d twin-served, %d escalated, %d cache hits, %d store hits)\n",
			len(specs), len(cfgNames), time.Since(t0).Round(time.Millisecond),
			r.EngineDefault, stats.Simulations, stats.TwinServed, stats.TwinEscalations, stats.CacheHits, stats.StoreHits)
	} else {
		fmt.Fprintf(os.Stderr, "spec sweep: %d specs x %d configs, wall %v (%d sims, %d cache hits, %d store hits)\n",
			len(specs), len(cfgNames), time.Since(t0).Round(time.Millisecond),
			stats.Simulations, stats.CacheHits, stats.StoreHits)
	}
	fmt.Print(out)
}
