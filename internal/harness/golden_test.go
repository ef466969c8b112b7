package harness

// Golden-regression test: the simulator is fully deterministic, so exact
// cycle counts, instruction counts, and L1 hit rates for a small fixed
// (workload, config) matrix are pinned against committed values. Any model
// change — intentional or not — that moves a number fails loudly here
// instead of drifting silently.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"apres/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"re-bless internal/harness/testdata/golden.json with the current simulator's outputs")

const (
	goldenScale = 0.05
	goldenSMs   = 2
	goldenFile  = "testdata/golden.json"
)

var (
	goldenApps    = []string{"BFS", "KM", "SP"}
	goldenConfigs = []string{"base", "gto", "laws", "apres"}
)

// goldenEntry pins one (workload, config) cell.
type goldenEntry struct {
	App          string
	Config       string
	Cycles       int64
	Instructions int64
	L1HitRate    float64
}

func currentGolden(t *testing.T, smJobs int) []goldenEntry {
	t.Helper()
	r := NewRunner(goldenScale, goldenSMs)
	r.Jobs = 8 // regression values must not depend on the pool width
	r.SMJobs = smJobs
	var out []goldenEntry
	for _, app := range goldenApps {
		for _, cfg := range goldenConfigs {
			res, err := r.Run(app, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, cfg, err)
			}
			out = append(out, goldenEntry{
				App:          app,
				Config:       cfg,
				Cycles:       res.Cycles,
				Instructions: res.Total.Instructions,
				L1HitRate:    res.Total.L1HitRate(),
			})
		}
	}
	return out
}

func TestGoldenRegression(t *testing.T) {
	got := currentGolden(t, 0)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-blessed %s with %d entries", goldenFile, len(got))
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file: %v\nGenerate it with:\n  go test ./internal/harness -run TestGoldenRegression -update-golden", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenFile, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, test matrix has %d: the matrix changed; re-bless with -update-golden", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("golden mismatch for %s/%s (scale=%v, sms=%d):\n  got  cycles=%d insts=%d l1hit=%v\n  want cycles=%d insts=%d l1hit=%v\n"+
				"The simulator's exact outputs moved. If this is UNINTENDED, you introduced model drift — fix it.\n"+
				"If the model change is intentional, re-bless the expected values with:\n"+
				"  go test ./internal/harness -run TestGoldenRegression -update-golden\n"+
				"and explain the numeric drift in the commit message.",
				w.App, w.Config, goldenScale, goldenSMs,
				g.Cycles, g.Instructions, g.L1HitRate,
				w.Cycles, w.Instructions, w.L1HitRate)
		}
	}
}

// TestGoldenRegressionParallel re-runs the whole golden matrix with the
// parallel engine (8 workers) against the same committed pins: the
// regression values must be engine-independent, so there is exactly one
// golden file, never a per-engine one.
func TestGoldenRegressionParallel(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenFile, err)
	}
	got := currentGolden(t, 8)
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, test matrix has %d", len(want), len(got))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("parallel engine diverges from golden pins for %s/%s:\n  got  %+v\n  want %+v\n"+
				"The serial engine still matches (TestGoldenRegression), so this is a parallel-engine bug, not model drift.",
				w.App, w.Config, got[i], w)
		}
	}
}

// TestRepeatedParallelRunDeterminism is the repeated-run guard: ten
// uncached executions of the same workload under 8-way SM parallelism must
// hash to one SHA-256 over the exported statistics and the full trace
// artifact. Goroutine scheduling noise showing up anywhere in the output
// would split the hashes.
func TestRepeatedParallelRunDeterminism(t *testing.T) {
	cfg, err := NamedConfig("apres")
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string][]int)
	for i := 0; i < 10; i++ {
		// A fresh Runner per iteration: a traced Request already bypasses
		// every cache, but nothing here may be answered warm even by accident.
		r := NewRunner(goldenScale, goldenSMs)
		r.Jobs = 8
		var buf bytes.Buffer
		tr := trace.New(trace.NewJSONSink(&buf), 500)
		out, err := r.Do(context.Background(), Request{Workload: "SP", Inline: cfg, LoadStats: true, Tracer: tr, RunOpts: RunOpts{SMJobs: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(stats)
		h.Write(buf.Bytes())
		sum := hex.EncodeToString(h.Sum(nil))
		hashes[sum] = append(hashes[sum], i)
	}
	if len(hashes) != 1 {
		t.Fatalf("10 identical parallel runs produced %d distinct SHA-256(stats+trace) hashes: %v", len(hashes), hashes)
	}
}
