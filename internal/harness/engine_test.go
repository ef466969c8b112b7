package harness

// Engine-selection tests: the analytical twin must answer without taking a
// simulator slot, the auto engine must escalate exactly when the calibrated
// bound exceeds the caller's tolerance, escalated exact runs must overwrite
// twin store entries in place (promotion, never demotion), and the engine
// annotation must survive a daemon restart (a fresh Runner over the same
// store directory).

import (
	"context"
	"reflect"
	"testing"

	"apres/internal/twin"
)

func TestParseEngine(t *testing.T) {
	for in, want := range map[string]string{
		"":               EngineCycleAccurate,
		"cycle-accurate": EngineCycleAccurate,
		"twin":           EngineTwin,
		"auto":           EngineAuto,
	} {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseEngine("oracle"); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestTwinServesWithoutSimulating(t *testing.T) {
	r := testRunner()
	ctx := context.Background()
	a, err := r.RunEngineNamed(ctx, "SP", "base", false, EngineReq{Engine: EngineTwin}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != EngineTwin || a.Escalated {
		t.Fatalf("outcome = %+v, want an unescalated twin answer", a)
	}
	if a.Bound.IPCRel <= 0 || a.Bound.L1HitAbs <= 0 {
		t.Fatalf("twin answer carries no error bound: %+v", a.Bound)
	}
	if a.Result.Cycles <= 0 || a.Result.Total.Instructions <= 0 {
		t.Fatalf("degenerate twin result: %+v", a.Result.Total)
	}
	b, err := r.RunEngineNamed(ctx, "SP", "base", false, EngineReq{Engine: EngineTwin}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("twin answers not deterministic across queries")
	}
	st := r.Stats()
	if st.Simulations != 0 {
		t.Fatalf("twin queries ran %d simulations, want 0", st.Simulations)
	}
	if st.TwinServed != 2 || st.TwinEscalations != 0 {
		t.Fatalf("stats = %+v, want 2 twin-served, 0 escalations", st)
	}
}

func TestTwinRejectsLoadStats(t *testing.T) {
	r := testRunner()
	ctx := context.Background()
	if _, err := r.RunEngineNamed(ctx, "SP", "base", true, EngineReq{Engine: EngineTwin}, RunOpts{}); err == nil {
		t.Fatal("twin engine accepted a load-statistics request")
	}
	// Auto escalates outright: characterisation needs a real execution.
	out, err := r.RunEngineNamed(ctx, "SP", "base", true, EngineReq{Engine: EngineAuto}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != EngineCycleAccurate || !out.Escalated {
		t.Fatalf("auto+loadStats outcome = %+v, want an escalated exact run", out)
	}
	if len(out.Result.LoadStats) == 0 {
		t.Fatal("escalated load-statistics run recorded no load stats")
	}
}

// TestAutoEscalatesExactlyAtTolerance pins the escalation boundary: with the
// tolerance set exactly to the prediction's effective bound the twin serves,
// and one notch tighter escalates.
func TestAutoEscalatesExactlyAtTolerance(t *testing.T) {
	ctx := context.Background()
	probe, err := testRunner().RunEngineNamed(ctx, "SP", "base", false, EngineReq{Engine: EngineTwin}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The loosest tolerance the bound still fits (Exceeds is a strict >).
	fit := probe.Bound.IPCRel
	if l1 := 3 * probe.Bound.L1HitAbs; l1 > fit {
		fit = l1
	}

	serve := testRunner()
	out, err := serve.RunEngineNamed(ctx, "SP", "base", false, EngineReq{Engine: EngineAuto, Tolerance: fit}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != EngineTwin || out.Escalated {
		t.Fatalf("tolerance == bound: outcome %+v, want twin-served", out)
	}
	if st := serve.Stats(); st.Simulations != 0 || st.TwinEscalations != 0 {
		t.Fatalf("tolerance == bound: stats %+v, want no simulator work", st)
	}

	esc := testRunner()
	out, err = esc.RunEngineNamed(ctx, "SP", "base", false, EngineReq{Engine: EngineAuto, Tolerance: fit * 0.999}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != EngineCycleAccurate || !out.Escalated {
		t.Fatalf("tolerance < bound: outcome %+v, want an escalated exact run", out)
	}
	st := esc.Stats()
	if st.Simulations != 1 || st.TwinEscalations != 1 {
		t.Fatalf("tolerance < bound: stats %+v, want 1 simulation + 1 escalation", st)
	}

	// The escalated result is the simulator's, bit-identical to a plain
	// exact run.
	exact, err := testRunner().Run("SP", "base")
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Cycles != exact.Cycles || !reflect.DeepEqual(out.Result.Total, exact.Total) {
		t.Fatal("escalated result differs from the exact engine's")
	}
}

func TestEscalationOverwritesTwinStoreEntry(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// 1. A twin query persists a tagged, bounded entry.
	r1 := storeRunner(t, dir)
	tw, err := r1.RunEngineNamed(ctx, "SP", "base", false, EngineReq{Engine: EngineTwin}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	key := tw.Key
	e, ok := r1.Store.Get(key)
	if !ok {
		t.Fatal("twin answer not persisted")
	}
	if e.Exact() || e.Engine != twin.EngineTwin {
		t.Fatalf("twin entry tagged %q, want %q", e.Engine, twin.EngineTwin)
	}
	if e.ErrorBoundIPC != tw.Bound.IPCRel || e.ErrorBoundL1 != tw.Bound.L1HitAbs {
		t.Fatalf("stored bounds (%v, %v) differ from served (%v)", e.ErrorBoundIPC, e.ErrorBoundL1, tw.Bound)
	}

	// 2. The exact path must treat the twin entry as a miss and simulate.
	exact, err := r1.Run("SP", "base")
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Simulations != 1 {
		t.Fatalf("exact run over a twin entry: stats %+v, want 1 simulation", st)
	}

	// 3. ... and its result overwrites the entry in place: same key, now
	// exact. Promotion, never demotion.
	e, ok = r1.Store.Get(key)
	if !ok || !e.Exact() || e.Engine != twin.EngineCycleAccurate {
		t.Fatalf("after escalation entry = %+v, want cycle-accurate", e)
	}
	if e.ErrorBoundIPC != 0 || e.ErrorBoundL1 != 0 {
		t.Fatalf("exact entry still carries error bounds: %+v", e)
	}
	if e.Result.Cycles != exact.Cycles {
		t.Fatal("overwritten entry does not hold the exact result")
	}

	// 4. Restart: a fresh Runner over the same directory. The annotation
	// survived, so a twin query is served from the exact entry, as exact,
	// without simulating or predicting.
	r2 := storeRunner(t, dir)
	out, err := r2.RunEngineNamed(ctx, "SP", "base", false, EngineReq{Engine: EngineTwin}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != EngineCycleAccurate {
		t.Fatalf("post-restart twin query served as %q, want the stored exact entry", out.Engine)
	}
	if out.Result.Cycles != exact.Cycles {
		t.Fatal("post-restart result differs from the escalated one")
	}
	if st := r2.Stats(); st.Simulations != 0 || st.StoreHits != 1 || st.TwinServed != 0 {
		t.Fatalf("post-restart stats %+v, want a pure store hit", st)
	}
}

// TestTwinEntrySurvivesRestart is the twin-side half of the persistence
// story: a twin-tagged entry re-serves with its stored bounds after a
// restart, without re-predicting.
func TestTwinEntrySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r1 := storeRunner(t, dir)
	a, err := r1.RunEngineNamed(ctx, "BFS", "apres", false, EngineReq{Engine: EngineTwin}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}

	r2 := storeRunner(t, dir)
	b, err := r2.RunEngineNamed(ctx, "BFS", "apres", false, EngineReq{Engine: EngineTwin}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Engine != EngineTwin {
		t.Fatalf("restarted twin query served as %q", b.Engine)
	}
	if b.Bound != a.Bound {
		t.Fatalf("bounds did not survive the restart: %v vs %v", b.Bound, a.Bound)
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("twin result did not survive the restart")
	}
	if st := r2.Stats(); st.StoreHits != 1 || st.TwinServed != 1 || st.Simulations != 0 {
		t.Fatalf("restarted stats %+v, want one twin store hit", st)
	}
}

// TestEngineDefaultRouting: a Runner-level EngineDefault routes the plain
// cache-path entry points (Run and friends) through the engine selector, so
// whole experiment suites can run analytically; load-statistics runs fall
// back to the exact engine rather than erroring.
func TestEngineDefaultRouting(t *testing.T) {
	r := testRunner()
	r.EngineDefault = EngineTwin
	if _, err := r.Run("SP", "base"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulations != 0 || st.TwinServed != 1 {
		t.Fatalf("EngineDefault=twin stats %+v, want an analytical answer", st)
	}
	if _, err := r.RunNamed(context.Background(), "SP", "base", true, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulations != 1 {
		t.Fatalf("load-stats run under EngineDefault=twin: stats %+v, want an exact fallback", st)
	}

	// Auto with a hopeless tolerance escalates through the same route.
	ra := testRunner()
	ra.EngineDefault = EngineAuto
	ra.EngineTolerance = 1e-9
	if _, err := ra.Run("SP", "base"); err != nil {
		t.Fatal(err)
	}
	if st := ra.Stats(); st.Simulations != 1 || st.TwinEscalations != 1 {
		t.Fatalf("EngineDefault=auto stats %+v, want 1 escalated simulation", st)
	}
}
