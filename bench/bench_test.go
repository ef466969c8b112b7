package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"apres/internal/gpu"
)

// The tail percentile a report names must have at least ten samples beyond
// it, or a handful of outliers set it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {3000, 0.99}, {10000, 0.999}} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got > 0.5 && float64(tc.n)*(1-got) < 9.999 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than ten samples beyond it", tc.n, got)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if percentile(nil, 0.9) != 0 || median(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The arrival schedule is a function of the seed alone.
func TestScheduleIsSeedStable(t *testing.T) {
	picks := [numClasses]int{45, 45, 6, 45, 5, 1, 1, 0}
	rates := []int{250, 500, 1000}
	a, steps := buildSchedule(7, rates, 1, 4*time.Second, picks, 0)
	b, _ := buildSchedule(7, rates, 1, 4*time.Second, picks, 0)
	c, _ := buildSchedule(8, rates, 1, 4*time.Second, picks, 0)
	if scheduleDigest(a) != scheduleDigest(b) {
		t.Error("the same seed gave two different schedules")
	}
	if scheduleDigest(a) == scheduleDigest(c) {
		t.Error("two seeds gave the same schedule")
	}
	if len(steps) != len(rates) || steps[1].end-steps[1].start != 2*(steps[0].end-steps[0].start) {
		t.Errorf("steps = %+v: the reference step must be twice as long as the others", steps)
	}
	coldPerStep := make([]int, len(rates))
	seen := make(map[int]bool)
	var last time.Duration
	for i, p := range a {
		if p.seq != int64(i+1) || p.due < last {
			t.Fatalf("request %d: seq %d due %v after %v: the schedule must be numbered in due order", i, p.seq, p.due, last)
		}
		last = p.due
		if p.due < steps[p.step].start || p.due >= steps[p.step].end {
			t.Fatalf("request %d is due outside its step", p.seq)
		}
		if p.class == clsCold {
			coldPerStep[p.step]++
			if seen[p.pick] {
				t.Fatalf("cold request number %d is used twice: it would hit the memo", p.pick)
			}
			seen[p.pick] = true
		} else if p.pick >= picks[p.class] {
			t.Fatalf("request %d picks prepared request %d of %d", p.seq, p.pick, picks[p.class])
		}
	}
	for i, n := range coldPerStep {
		// 0.4 % of the arrivals, placed every 250th: the count follows from
		// the step's length alone.
		want := float64(rates[i]) * (steps[i].end - steps[i].start).Seconds() * 0.004
		if n < 1 || float64(n) < want-1.5 || float64(n) > want+1.5 {
			t.Errorf("step %d has %d cold requests, want about %.1f and at least 1", i, n, want)
		}
	}
	d, _ := buildSchedule(7, rates, 1, 4*time.Second, picks, 1000)
	for _, p := range d {
		if p.class == clsCold && p.pick <= 1000 {
			t.Fatalf("cold request number %d: want numbers above coldFrom", p.pick)
		}
	}
}

// A layer's self time is its span minus the part its children cover.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "cluster.handler", StartNS: 10, DurNS: 80},
		{ID: 3, Parent: 2, Name: "server.handler", StartNS: 20, DurNS: 40}, // worker 0
		{ID: 4, Parent: 2, Name: "server.handler", StartNS: 30, DurNS: 50}, // worker 1, overlapping
		{ID: 5, Parent: 1, Name: "stray", StartNS: 95, DurNS: 20},          // runs past its parent's end
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 80 - 5, // the handler's 80 and the 5 ns of the stray child inside the parent
		2: 80 - 60,      // the two workers cover 20..80 once
		3: 40,
		4: 50,
		5: 20,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}

	// Aggregate children are laid end to end, so they subtract in full.
	l := newSpanLog()
	start := l.t0.Add(time.Millisecond)
	parent := l.record("gpu.loop", 0, 1, "BFS/base", start, 100*time.Nanosecond)
	l.aggregates(parent, "BFS/base", start, []span{
		{Name: "dram.tick", DurNS: 20, Calls: 7},
		{Name: "core.tick", DurNS: 70, Calls: 9},
	})
	got := l.snapshot()
	if len(got) != 3 || !got[1].Aggregate || got[2].StartNS != got[1].StartNS+20 || got[2].Calls != 9 {
		t.Fatalf("aggregate spans = %+v", got)
	}
	if s := selfTimes(got)[parent]; s != 10 {
		t.Errorf("self time under aggregates = %d, want 10", s)
	}

	var none *spanLog
	if none.record("x", 0, 0, "", time.Now(), time.Second) != 0 || none.snapshot() != nil {
		t.Error("a nil span log must record nothing")
	}
}

// The instrumented driver re-creates gpu.RunContext's per-cycle loop from the
// layers' exported calls; it must simulate exactly what that loop does.
func TestDriverMatchesSimulate(t *testing.T) {
	cells, err := buildCells([]string{"BFS", "HISTO"}, []string{"apres"}, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := buildCells([]string{"KM"}, []string{"base"}, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(cells, base...) {
		want, err := gpu.Simulate(c.cfg, c.kern, gpu.WithoutCycleSkipping())
		if err != nil {
			t.Fatal(err)
		}
		got, lt, err := driveCell(c, 4, lapCostNS())
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutcome(got, want) {
			t.Errorf("%s: driver cycles=%d total=%+v\nwant cycles=%d total=%+v", c, got.Cycles, got.Total, want.Cycles, want.Total)
		}
		for i := range want.PerSM {
			if got.PerSM[i] != want.PerSM[i] {
				t.Errorf("%s: SM %d counters differ", c, i)
			}
		}
		if lt.ticks == 0 || lt.requests == 0 || lt.cycles != want.Cycles {
			t.Errorf("%s: layer counts %+v", c, lt)
		}
		lt.scaleTo(time.Second)
		sum := lt.coreTickNS + lt.coreFillNS + lt.dramTickNS + lt.dramReqNS + lt.nocNS + lt.loopNS
		if sum < 0.999e9 || sum > 1.001e9 {
			t.Errorf("%s: scaled layer times add up to %g ns, want 1e9", c, sum)
		}
	}
}

func TestNormaliseBlanksWallTimeAndCachedOnly(t *testing.T) {
	a := []byte(`{"cached": true, "wallMs": 1234, "cycles": 99, "cells": [{"wallMs": 7, "cached": false}]}`)
	b := []byte(`{"cached": false, "wallMs": 0, "cycles": 99, "cells": [{"wallMs": 31, "cached": true}]}`)
	if !bytes.Equal(normalise(nil, a), normalise(nil, b)) {
		t.Errorf("normalise:\n%s\n%s", normalise(nil, a), normalise(nil, b))
	}
	c := bytes.Replace(a, []byte("99"), []byte("98"), 1)
	if bytes.Equal(normalise(nil, a), normalise(nil, c)) {
		t.Error("normalise hid a difference in cycles")
	}
}

// BENCHMARK.json and the metric tables in metrics.go describe one benchmark.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bj.Command, " ") != "go run ./bench" || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %g in the code", kind, d.Name, g.Bound, d.Bound)
			}
			if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %+v breaks the naming rules", kind, d)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("the first end-to-end metric must be setup_s in s, lower is better")
	}
}

func TestCompareRefusesDifferentThreadCounts(t *testing.T) {
	mk := func(nproc int, cold float64) *result {
		return &result{Workload: "sim_serial", Host: host{NProc: nproc, GOMAXPROCS: nproc},
			Metrics: map[string]metricValue{"cold_s": {cold, "s"}, "sim_mwinst_per_s": {10 / cold, "Mwinst/s"}}}
	}
	var out, errw bytes.Buffer
	if code := compareResults(mk(2, 5), mk(1, 5), &out, &errw); code != 2 || !strings.Contains(errw.String(), "thread counts") {
		t.Errorf("different thread counts: exit %d, stderr %q", code, errw.String())
	}
	out.Reset()
	if code := compareResults(mk(2, 5), mk(2, 5.2), &out, &errw); code != 0 {
		t.Errorf("a 4%% change within the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(mk(2, 5), mk(2, 6.5), &out, &errw); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 30%% regression: exit %d\n%s", code, out.String())
	}
	// higher-is-better metrics worsen when they fall.
	if !strings.Contains(out.String(), "sim_mwinst_per_s") || strings.Count(out.String(), "WORSE") != 2 {
		t.Errorf("want both cold_s and sim_mwinst_per_s flagged:\n%s", out.String())
	}
}

// The smoke pass runs all five workloads, untraced and traced, at a tiny
// size, with every output check.
func TestSmoke(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-smoke", "-workdir", t.TempDir()}, &out, &errw)
	if code != 0 {
		t.Fatalf("smoke exit %d\n%s\n%s", code, out.String(), errw.String())
	}
	for _, w := range allWorkloads {
		for _, tr := range []string{"trace=0", "trace=1"} {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, w.name+" ") && strings.Contains(line, tr) && strings.Contains(line, "correct=true") && strings.Contains(line, "failed=0") {
					found = true
				}
			}
			if !found {
				t.Errorf("no passing smoke line for %s %s\n%s", w.name, tr, out.String())
			}
		}
	}
}

// One reference-format run end to end: the last line of standard output is
// the JSON object the driver reads, with exactly its four keys.
func TestLastLineIsTheDriverJSON(t *testing.T) {
	w, _ := workloadByName("sim_serial")
	o := options{workload: w.name, seed: 3, seconds: 0.1, workRoot: t.TempDir()}
	res, err := runWorkload(w, o, smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(res, o, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(last) != 4 {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", last)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("an untraced run printed %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v: every end-to-end metric must be present and never 0", d.Name, m)
		}
	}
}
