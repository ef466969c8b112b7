package harness

// Tests for the worker-pool execution layer: parallel runs must be
// bit-identical to serial ones, identical concurrent requests must
// simulate exactly once, and rendered figures must not depend on the job
// count. Run with -race to check the pool's synchronisation.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// poolRunner returns a small-scale Runner with the pool forced wide open,
// so -race sees real concurrency even on a single-core machine.
func poolRunner() *Runner {
	r := NewRunner(0.08, 2)
	r.Jobs = 8
	return r
}

func TestRunDeterministicSerialVsParallel(t *testing.T) {
	// The same (workload, config) pair simulated twice serially and once
	// through the parallel pool must agree on the FULL result: cycles,
	// per-SM stats, and load stats.
	serial1 := NewRunner(0.08, 2)
	serial1.Jobs = 1
	serial2 := NewRunner(0.08, 2)
	serial2.Jobs = 1
	parallel := poolRunner()

	a, err := serial1.RunNamed(context.Background(), "BFS", "apres", true, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := serial2.RunNamed(context.Background(), "BFS", "apres", true, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the pool: issue the run of interest alongside unrelated
	// runs so it really executes amid concurrency.
	var wg sync.WaitGroup
	for _, cfg := range []string{"base", "gto", "laws", "ccws"} {
		cfg := cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := parallel.Run("BFS", cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	c, err := parallel.RunNamed(context.Background(), "BFS", "apres", true, RunOpts{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(a, b) {
		t.Fatal("two serial runs of the same pair differ: the simulator is not deterministic")
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("parallel run differs from serial run: the pool changes results")
	}
	if a.Cycles == 0 || len(a.PerSM) != 2 || len(a.LoadStats) == 0 {
		t.Fatalf("degenerate result: cycles=%d perSM=%d loads=%d", a.Cycles, len(a.PerSM), len(a.LoadStats))
	}
}

func TestSingleflightDeduplicatesIdenticalRuns(t *testing.T) {
	// 16 goroutines racing for the same Cell must trigger exactly one
	// simulation; everyone else either joins the in-flight run or hits
	// the cache after it lands.
	r := poolRunner()
	const callers = 16
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		seen  []int64
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := r.Run("SP", "base")
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			seen = append(seen, res.Cycles)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	st := r.Stats()
	if st.Simulations != 1 {
		t.Fatalf("%d simulations for %d identical requests, want exactly 1 (singleflight)", st.Simulations, callers)
	}
	if got := st.CacheHits + st.DedupWaits; got != callers-1 {
		t.Fatalf("cache hits (%d) + dedup waits (%d) = %d, want %d", st.CacheHits, st.DedupWaits, got, callers-1)
	}
	for _, cy := range seen {
		if cy != seen[0] {
			t.Fatalf("callers observed different cycle counts: %v", seen)
		}
	}
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFollowerOutlivesCancelledLeader: the request that happens to be
// simulating gives up (timeout, client gone); a deduplicated request with a
// live context must not inherit that cancellation. It asks again, becomes
// the leader, and gets the result — at the price of exactly one more
// simulation.
func TestFollowerOutlivesCancelledLeader(t *testing.T) {
	r := NewRunner(1, 0) // full scale: the leader is still running when it is cancelled
	req := Request{Workload: "SP", Config: "base"}

	leadCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leadErr := make(chan error, 1)
	go func() {
		_, err := r.Do(leadCtx, req)
		leadErr <- err
	}()
	waitFor(t, "the leader to start simulating", func() bool { return r.Stats().Simulations == 1 })

	type answer struct {
		out Outcome
		err error
	}
	followed := make(chan answer, 1)
	go func() {
		out, err := r.Do(context.Background(), req)
		followed <- answer{out, err}
	}()
	waitFor(t, "the follower to join", func() bool { return r.Stats().DedupWaits == 1 })

	cancel()
	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	a := <-followed
	if a.err != nil {
		t.Fatalf("follower with a live context inherited the leader's fate: %v", a.err)
	}
	if a.out.Result.Cycles <= 0 || a.out.Cached {
		t.Fatalf("follower outcome cycles=%d cached=%v, want a fresh simulated result", a.out.Result.Cycles, a.out.Cached)
	}
	if st := r.Stats(); st.Simulations != 2 || st.CacheHits != 0 {
		t.Fatalf("stats %+v, want exactly one simulation beyond the cancelled one", st)
	}
	// The follower's result was memoised like any leader's.
	if again, err := r.Do(context.Background(), req); err != nil || !again.Cached {
		t.Fatalf("repeat after recovery: cached=%v err=%v", again.Cached, err)
	}
}

func TestFig10ByteIdenticalAcrossJobs(t *testing.T) {
	// One full figure rendered at jobs=1 and jobs=8 must be byte-identical
	// in every output format: ordering is deterministic under concurrency.
	apps := []string{"BFS", "SRAD", "SP", "KM", "NW"}
	render := func(jobs int) map[string]string {
		r := NewRunner(0.08, 2)
		r.Jobs = jobs
		c, err := r.Fig10(apps)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, f := range []string{FormatText, FormatCSV, FormatMarkdown} {
			s, err := c.RenderAs(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = s
		}
		return out
	}
	one := render(1)
	eight := render(8)
	for f, want := range one {
		if got := eight[f]; got != want {
			t.Errorf("format %s differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", f, want, got)
		}
	}
}

func TestTableIIdenticalAcrossJobs(t *testing.T) {
	apps := []string{"KM", "SRAD", "BFS"}
	tableAt := func(jobs int) string {
		r := NewRunner(0.08, 2)
		r.Jobs = jobs
		rows, err := r.TableI(apps)
		if err != nil {
			t.Fatal(err)
		}
		return RenderTableI(rows)
	}
	if one, eight := tableAt(1), tableAt(8); one != eight {
		t.Errorf("Table I differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", one, eight)
	}
}

func TestMapConcurrent(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 16, 200} {
		out, err := mapConcurrent(workers, items, func(_ int, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d (ordering broken)", workers, i, v, i*i)
			}
		}
	}
	// Empty input and error propagation.
	if out, err := mapConcurrent[int, int](4, nil, nil); err != nil || out != nil {
		t.Fatalf("empty input: %v %v", out, err)
	}
}

func TestMapConcurrentReturnsLowestIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	wantErr := func(v int) error { return &indexError{v} }
	for _, workers := range []int{1, 8} {
		_, err := mapConcurrent(workers, items, func(_ int, v int) (int, error) {
			if v >= 3 {
				return 0, wantErr(v)
			}
			return v, nil
		})
		ie, ok := err.(*indexError)
		if !ok || ie.i != 3 {
			t.Fatalf("workers=%d: err = %v, want index 3's error", workers, err)
		}
	}
}

type indexError struct{ i int }

func (e *indexError) Error() string { return "fail" }
