// Command characterize reproduces Table I of the APRES paper: the
// per-static-load characterisation (%Load, #L/#R, miss rate, dominant
// inter-warp stride and its share) of each benchmark under the baseline
// LRR GPU.
//
// Usage:
//
//	characterize                 # all memory-intensive apps (paper scope)
//	characterize -apps KM,SRAD   # a subset
//	characterize -all            # all 15 apps
//	characterize -apps SP -spec-out specs/   # emit measured workload specs
//
// With -spec-out, each characterised benchmark's measured per-load
// statistics (dominant stride, locality, coalescing degree, working-set
// size, regularity) are additionally emitted as a workload-spec JSON file
// <dir>/<app>-measured.json, runnable with apressim -spec. This closes the
// loop simulate -> characterize -> re-simulate from spec.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"apres/internal/harness"
	"apres/internal/profiling"
	"apres/internal/version"
)

// die reports a fatal error and exits 1.
func die(v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(1)
}

func main() {
	var shared harness.Flags
	shared.Register(flag.CommandLine, true, map[string]string{
		"scale": "workload iteration scale",
		"sms":   "override SM count",
	})
	var (
		apps    = flag.String("apps", "", "comma-separated benchmark subset (default: memory-intensive set)")
		all     = flag.Bool("all", false, "characterise all 15 benchmarks")
		specOut = flag.String("spec-out", "", "write each app's measured characteristics as a workload-spec JSON into this directory")
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

	var list []string
	switch {
	case *apps != "":
		list = strings.Split(*apps, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
	case *all:
		list = harness.AllApps()
	default:
		list = harness.MemoryIntensiveApps()
	}

	r, err := shared.Runner(0)
	if err != nil {
		die(err)
	}
	start := time.Now()
	rows, err := r.TableI(list)
	if err != nil {
		die(err)
	}
	fmt.Print(harness.RenderTableI(rows))

	if *specOut != "" {
		if err := os.MkdirAll(*specOut, 0o755); err != nil {
			die(err)
		}
		// TableI already ran every app with load statistics, so the memo
		// cache makes these re-runs free.
		for _, app := range list {
			s, err := r.MeasuredSpec(context.Background(), app)
			if err != nil {
				die(fmt.Sprintf("%s: %v", app, err))
			}
			path := filepath.Join(*specOut, s.Name+".json")
			if err := os.WriteFile(path, s.Encode(), 0o644); err != nil {
				die(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	fmt.Fprintf(os.Stderr, "wall time: %v\n", time.Since(start).Round(time.Millisecond))
}
