package harness

import (
	"context"
	"testing"
	"time"
)

// warmRunner returns a Runner with a store whose memo holds KM and SP under
// base and apres, and the four requests that hit it.
func warmRunner(tb testing.TB) (*Runner, []Request) {
	tb.Helper()
	r := storeRunner(tb, tb.TempDir())
	var reqs []Request
	for _, app := range []string{"KM", "SP"} {
		for _, cfg := range []string{"base", "apres"} {
			req := Request{Workload: app, Config: cfg}
			if _, err := r.Do(context.Background(), req); err != nil {
				tb.Fatal(err)
			}
			reqs = append(reqs, req)
		}
	}
	return r, reqs
}

// TestWarmPathAllocBudget pins what a memo hit may cost: resolve, probe, copy
// the result out. Building the workload table (56 allocations, 34 KB), a
// workload or a store key on this path shows here first.
func TestWarmPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts and timings are not meaningful under the race detector")
	}
	r, reqs := warmRunner(t)
	ctx := context.Background()
	i := 0
	hit := func() {
		out, err := r.Do(ctx, reqs[i%len(reqs)])
		if err != nil || !out.Cached || out.Key == "" {
			t.Fatalf("not a memo hit with a key: cached=%v key=%q err=%v", out.Cached, out.Key, err)
		}
		i++
	}
	const budget = 4
	if got := testing.AllocsPerRun(200, hit); got > budget {
		t.Errorf("Runner.Do memo hit: %.0f allocs, budget %d", got, budget)
	}
	if testing.Short() {
		return
	}
	// The time bound is loose (the target is 3 us; the table cost 20 on its
	// own) and takes the best of five rounds, so a busy host cannot fail it.
	best := time.Hour
	for round := 0; round < 5; round++ {
		const n = 2000
		t0 := time.Now()
		for j := 0; j < n; j++ {
			hit()
		}
		if d := time.Since(t0) / n; d < best {
			best = d
		}
	}
	t.Logf("Runner.Do memo hit: %v", best)
	if best > 8*time.Microsecond {
		t.Errorf("Runner.Do memo hit takes %v, want a few microseconds", best)
	}
}

func BenchmarkDoMemoHit(b *testing.B) {
	r, reqs := warmRunner(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Do(ctx, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}
