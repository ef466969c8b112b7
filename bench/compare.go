package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, for two results of one workload written with -out,
// each metric's change from a to b against the bound the benchmark fixes. It
// refuses to compare results taken with different thread counts, and exits
// non-zero when an end-to-end metric worsened by more than its bound.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "apresbench: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout, stderr)
}

func compareResults(a, b *result, stdout, stderr io.Writer) int {
	switch {
	case a.Workload != b.Workload || a.Traced != b.Traced:
		fmt.Fprintf(stderr, "apresbench: cannot compare %s (traced=%v) with %s (traced=%v)\n", a.Workload, a.Traced, b.Workload, b.Traced)
		return 2
	case a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		fmt.Fprintf(stderr, "apresbench: refusing to compare results taken with different thread counts: nproc %d/%d, GOMAXPROCS %d/%d\n",
			a.Host.NProc, b.Host.NProc, a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
		return 2
	}
	defs := endToEnd
	if a.Traced {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%s: a = seed %d, b = seed %d\n", a.Workload, a.Seed, b.Seed)
	fmt.Fprintf(stdout, "%-32s %14s %14s %9s %7s  %s\n", "metric", "a", "b", "change", "bound", "verdict")
	worse := 0
	for _, d := range defs {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		if va == 0 && vb == 0 {
			continue
		}
		// change > 0 means b is worse than a, whichever way the metric points.
		change := 0.0
		if va != 0 {
			change = (vb - va) / va
			if d.Better == "higher" {
				change = -change
			}
		}
		verdict, bound := "", "-"
		if !a.Traced {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			verdict = "ok"
			if change > d.Bound {
				verdict = "WORSE"
				worse++
			}
		}
		fmt.Fprintf(stdout, "%-32s %14s %14s %+8.1f%% %7s  %s\n", d.Name, fmtMetric(va), fmtMetric(vb), 100*change, bound, verdict)
	}
	if a.Info["stats_digest"] != b.Info["stats_digest"] {
		fmt.Fprintf(stdout, "stats_digest differs: the two runs did not simulate the same thing\n")
		worse++
	}
	if worse > 0 {
		return 1
	}
	return 0
}
