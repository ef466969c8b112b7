package harness

import (
	"context"
	"testing"

	"apres/internal/resultstore"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

func testSpec(t *testing.T) *workspec.Spec {
	t.Helper()
	s, err := workspec.FromWorkload(mustWorkload(t, "SP"))
	if err != nil {
		t.Fatalf("FromWorkload: %v", err)
	}
	return s
}

func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}

// TestRunSpecMatchesNamedRun pins the core fidelity claim: a spec decompiled
// from a workload simulates bit-identically to the named workload, while
// being cached under its own content-addressed identity.
func TestRunSpecMatchesNamedRun(t *testing.T) {
	r := NewRunner(0.02, 2)
	ctx := context.Background()
	s := testSpec(t)
	specOut, err := r.Do(ctx, Request{Spec: s, Config: "base"})
	if err != nil {
		t.Fatalf("spec run: %v", err)
	}
	fromSpec := specOut.Result
	named, err := r.Run("SP", "base")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fromSpec.Cycles != named.Cycles || fromSpec.Total != named.Total {
		t.Fatalf("spec run diverged: %d cycles vs %d", fromSpec.Cycles, named.Cycles)
	}
	if specOut.Cached {
		t.Error("cold spec run reported cached")
	}
	if stats := r.Stats(); stats.CacheHits != 0 {
		t.Errorf("spec and named runs must be distinct cache entries, got %d hits", stats.CacheHits)
	}
	for _, req := range []Request{{Spec: s, Config: "base"}, {Workload: "SP", Config: "base"}} {
		if again, err := r.Do(ctx, req); err != nil || !again.Cached {
			t.Errorf("repeat of %q/spec=%v not memoised (cached=%v, err=%v)", req.Workload, req.Spec != nil, again.Cached, err)
		}
	}
}

// TestSpecStoreRoundTrip pins the persistent-store behaviour: a spec run is
// stored under its canonical digest key and served from the store on
// repeat, and the key differs from the named workload's.
func TestSpecStoreRoundTrip(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := testSpec(t)

	r1 := NewRunner(0.02, 2)
	r1.Store = st
	first, err := r1.Do(ctx, Request{Spec: s, Config: "base"})
	if err != nil {
		t.Fatal(err)
	}
	key := first.Key
	if !resultstore.ValidKey(key) {
		t.Fatalf("bad spec store key %q", key)
	}
	if named, err := r1.Do(ctx, Request{Workload: "SP", Config: "base"}); err != nil || key == named.Key {
		t.Fatalf("spec and named store keys must differ (%q vs %q, err=%v)", key, named.Key, err)
	}
	e, ok := st.Get(key)
	if !ok {
		t.Fatal("spec run not persisted under its digest key")
	}
	// The spec's identity: its name plus the full canonical digest.
	if want := "spec:" + s.Name + ":" + s.Digest(); e.Workload != want {
		t.Errorf("stored workload identity %q, want %q", e.Workload, want)
	}

	// A fresh runner (cold memo cache) must be served from the store.
	r2 := NewRunner(0.02, 2)
	r2.Store = st
	again, err := r2.Do(ctx, Request{Spec: s, Config: "base"})
	if err != nil {
		t.Fatal(err)
	}
	if again.Result.Cycles != first.Result.Cycles || again.Key != key || !again.Cached {
		t.Fatalf("stored spec result diverged (key %q cached %v)", again.Key, again.Cached)
	}
	if r2.Stats().StoreHits != 1 {
		t.Errorf("want 1 store hit, got %d", r2.Stats().StoreHits)
	}
}

// TestSpecSweep exercises the concurrent sweep chart over two specs and
// two configs.
func TestSpecSweep(t *testing.T) {
	r := NewRunner(0.02, 2)
	sp := testSpec(t)
	km, err := workspec.FromWorkload(mustWorkload(t, "KM"))
	if err != nil {
		t.Fatal(err)
	}
	chart, err := r.SpecSweep(context.Background(), []*workspec.Spec{sp, km}, []string{"base", "apres"})
	if err != nil {
		t.Fatalf("SpecSweep: %v", err)
	}
	if len(chart.Apps) != 2 || len(chart.Series) != 2 {
		t.Fatalf("chart shape %dx%d, want 2x2", len(chart.Apps), len(chart.Series))
	}
	for _, s := range chart.Series {
		for _, app := range chart.Apps {
			if s.Values[app] <= 0 {
				t.Errorf("series %s app %s has non-positive IPC", s.Name, app)
			}
		}
	}
}

// TestMeasuredSpec pins characterize -spec-out: the emitted spec is valid,
// compiles, simulates, and reflects the measured loads.
func TestMeasuredSpec(t *testing.T) {
	r := NewRunner(0.02, 2)
	s, err := r.MeasuredSpec(context.Background(), "SP")
	if err != nil {
		t.Fatalf("MeasuredSpec: %v", err)
	}
	if s.Name != "SP-measured" {
		t.Errorf("bad name %q", s.Name)
	}
	// The spec re-parses from its serialised form and simulates.
	reparsed, err := workspec.Parse(s.Encode())
	if err != nil {
		t.Fatalf("emitted spec does not re-parse: %v", err)
	}
	out, err := r.Do(context.Background(), Request{Spec: reparsed, Config: "base"})
	if err != nil {
		t.Fatalf("measured spec does not simulate: %v", err)
	}
	if out.Result.Cycles <= 0 {
		t.Fatal("measured spec run produced no cycles")
	}
	// SP has two static loads; both must survive into the spec.
	loads := 0
	for _, in := range s.Kernels[0].Body {
		if in.Op == "load" {
			loads++
		}
	}
	if loads != 2 {
		t.Errorf("want 2 measured loads, got %d", loads)
	}
	// SP's loads are regular streams: the measured dominant stride must
	// come out as a linear pattern, not a Random one.
	for _, in := range s.Kernels[0].Body {
		if in.Op == "load" && in.Pattern.Random {
			t.Errorf("load %#x measured as irregular; SP streams are regular", in.PC)
		}
	}
}
