package gpu

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"apres/internal/config"
	"apres/internal/workloads"
)

// TestLanePaddingAndBlocks pins the two layout rules that keep workers off
// each other's cache lines: per-SM engine state fills whole lines, and each
// worker owns one contiguous block of SMs.
func TestLanePaddingAndBlocks(t *testing.T) {
	if sz := unsafe.Sizeof(smLane{}); sz%cacheLine != 0 {
		t.Errorf("smLane is %d bytes, not a multiple of the %d-byte line", sz, cacheLine)
	}
	if sz := unsafe.Sizeof(parker{}); sz%cacheLine != 0 {
		t.Errorf("parker is %d bytes, not a multiple of the %d-byte line", sz, cacheLine)
	}
	var b epochBarrier
	if d := unsafe.Offsetof(b.done) - unsafe.Offsetof(b.seq); d < cacheLine {
		t.Errorf("barrier seq and done are %d bytes apart, want >= %d", d, cacheLine)
	}
	for _, c := range []struct {
		jobs, sms int
		want      []int // block starts, then the SM count
	}{
		{2, 15, []int{0, 8, 15}},
		{4, 15, []int{0, 4, 8, 12, 15}},
		{4, 5, []int{0, 2, 3, 4, 5}},
		{5, 5, []int{0, 1, 2, 3, 4, 5}},
	} {
		for w, want := range c.want {
			if got := blockStart(w, c.jobs, c.sms); got != want {
				t.Errorf("%d SMs over %d workers: block %d starts at SM %d, want %d", c.sms, c.jobs, w, got, want)
			}
		}
	}
}

// TestSpinBudget pins the barrier's spin rule: nothing before the first
// epoch has measured a serial section, then a few times the mean serial
// section, capped.
func TestSpinBudget(t *testing.T) {
	w, _ := workloads.ByName("SP")
	budget := func(epochs int64, serialPerEpoch time.Duration) time.Duration {
		g, err := New(config.Baseline(), w.Kernel, WithParallelSMs(2))
		if err != nil {
			t.Fatal(err)
		}
		e := newParallelEngine(g)
		defer e.stop()
		e.prof.Epochs = epochs
		e.prof.PrepareNS = 4 * int64(serialPerEpoch)
		e.prof.DrainNS = 6 * int64(serialPerEpoch)
		return e.spinBudget()
	}
	if got := budget(0, 0); got != 0 {
		t.Errorf("first epoch: spin budget %v, want 0 (park at once)", got)
	}
	if got, want := budget(10, 100*time.Microsecond), spinFactor*100*time.Microsecond; got != want {
		t.Errorf("spin budget %v, want %v", got, want)
	}
	if got := budget(10, 10*time.Millisecond); got != maxSpin {
		t.Errorf("long serial sections: spin budget %v, want the %v cap", got, maxSpin)
	}
}

// TestBarrierPingPongOneProc drives the epoch barrier through many hand-offs
// with one processor and no spinning, so every wait parks and every wake-up
// goes through parker.signal. A lost wake-up leaves both sides parked: the
// watchdog fails the test instead of letting the run hang. The engine is
// built with three workers by hand, past the clamp New would apply, and
// hands out empty windows, so only the barrier does work.
func TestBarrierPingPongOneProc(t *testing.T) {
	const rounds = 20000
	w, _ := workloads.ByName("SP")
	cfg := config.Baseline()
	cfg.NumSMs = 4
	g, err := New(cfg, w.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g.smJobs = 4
	e := newParallelEngine(g)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			e.fanOut(epochWindow{from: 1, to: 0})
			e.awaitWorkers(0)
		}
		e.stop()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("barrier hung: %d of %d hand-offs done", e.bar.seq.Load(), rounds)
	}
	// stop() is the last hand-off; every worker must have counted each one.
	if got, want := e.bar.done.Load(), int64(rounds+1)*int64(len(e.bar.workers)); got != want {
		t.Fatalf("workers finished %d windows, want %d", got, want)
	}
}

// TestParallelCancelStopsWorkers cancels a parallel run: it must return the
// context's error, and every worker goroutine must be gone soon after —
// whether the workers were spinning at the barrier (cancelled mid-run) or
// waiting for the first epoch, a hand-off they park for at once.
func TestParallelCancelStopsWorkers(t *testing.T) {
	w, ok := workloads.ByName("KM")
	if !ok {
		t.Fatal("unknown workload KM")
	}
	for _, c := range []struct {
		name    string
		timeout time.Duration
	}{
		{"spinning", 30 * time.Millisecond},
		{"parked", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			before := runtime.NumGoroutine()
			// Full-scale KM runs for most of a second; the 30ms deadline
			// lands a few dozen epochs in.
			ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
			defer cancel()
			_, err := SimulateContext(ctx, config.APRES(), w.Kernel, WithParallelSMs(4))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cancelled run returned %v, want %v", err, context.DeadlineExceeded)
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines still running 1s after the cancelled run returned, %d before it",
						runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		})
	}
}
