package harness

// Tests for the persistent result store integration and context
// cancellation: a second Runner over the same store directory must serve
// warm results without simulating, explicit configs must share the same
// machinery, and a cancelled context must abort promptly.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"apres/internal/config"
	"apres/internal/resultstore"
)

func storeRunner(t testing.TB, dir string) *Runner {
	t.Helper()
	st, err := resultstore.Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner()
	r.Store = st
	return r
}

func TestStoreWarmAcrossRunners(t *testing.T) {
	dir := t.TempDir()

	// Cold runner: simulates and persists.
	r1 := storeRunner(t, dir)
	a, err := r1.Run("SP", "apres")
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Simulations != 1 || st.StoreHits != 0 {
		t.Fatalf("cold stats = %+v, want 1 simulation, 0 store hits", st)
	}

	// A fresh runner over the same directory — a restarted process — must
	// answer from the store without simulating.
	r2 := storeRunner(t, dir)
	b, err := r2.Run("SP", "apres")
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.Simulations != 0 {
		t.Fatalf("warm runner simulated %d times, want 0", st.Simulations)
	}
	if st.StoreHits != 1 {
		t.Fatalf("warm stats = %+v, want 1 store hit", st)
	}
	if a.Cycles != b.Cycles || !reflect.DeepEqual(a.Total, b.Total) || !reflect.DeepEqual(a.PerSM, b.PerSM) {
		t.Fatal("stored result differs from the simulated one")
	}

	// Different scale must not share entries.
	st3, err := resultstore.Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(0.04, 2)
	r3.Store = st3
	if _, err := r3.Run("SP", "apres"); err != nil {
		t.Fatal(err)
	}
	if s := r3.Stats(); s.Simulations != 1 || s.StoreHits != 0 {
		t.Fatalf("different-scale runner stats = %+v, want a fresh simulation", s)
	}
}

func TestStoreSkippedUnderAdjust(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir)
	r.Adjust = func(c *config.Config) { c.SAPPTEntries = 5 }
	out, err := r.Do(context.Background(), Request{Workload: "SP", Config: "apres"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != "" {
		t.Fatalf("Key under Adjust = %q, want empty", out.Key)
	}
	// Nothing persisted: a fresh un-adjusted runner must simulate.
	r2 := storeRunner(t, dir)
	if _, err := r2.Run("SP", "apres"); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Simulations != 1 {
		t.Fatalf("adjusted run leaked into the store: %+v", st)
	}
}

func TestRunConfigSharesCacheAndStore(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir)
	ctx := context.Background()

	cfg := config.APRES()
	a, err := r.Do(ctx, Request{Workload: "SP", Inline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Second identical explicit-config run: memoised.
	if again, err := r.Do(ctx, Request{Workload: "SP", Inline: cfg}); err != nil || !again.Cached || again.Key != a.Key {
		t.Fatalf("repeat: cached=%v key=%q (first %q) err=%v", again.Cached, again.Key, a.Key, err)
	}
	if st := r.Stats(); st.Simulations != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 simulation + 1 cache hit", st)
	}

	// The named "apres" config resolves to the same config.Config, so the
	// store (content-addressed) must serve it to a fresh runner without
	// simulating, even though the memo tag differs.
	r2 := storeRunner(t, dir)
	b, err := r2.Run("SP", "apres")
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Simulations != 0 || st.StoreHits != 1 {
		t.Fatalf("named-config run after explicit-config store: %+v, want pure store hit", st)
	}
	if a.Result.Cycles != b.Cycles {
		t.Fatal("explicit and named config results differ")
	}

	// Invalid explicit configs are rejected up front.
	bad := config.Baseline()
	bad.NumSMs = 0
	if _, err := r.Do(ctx, Request{Workload: "SP", Inline: bad}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunContextCancellation(t *testing.T) {
	r := NewRunner(1, 0) // full scale: long enough to outlive the deadline
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunNamed(ctx, "SP", "base", false, RunOpts{}); err == nil {
		t.Fatal("pre-cancelled context did not abort the run")
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	start := time.Now()
	if _, err := r.RunNamed(ctx2, "KM", "base", false, RunOpts{}); err == nil {
		t.Fatal("timed-out context did not abort the run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
	// A failed (cancelled) run must not poison the cache.
	if st := r.Stats(); st.CacheHits != 0 {
		t.Fatalf("cancelled runs were cached: %+v", st)
	}
}
