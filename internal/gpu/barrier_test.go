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

// TestSpinBudget pins the barrier's spin rule: a few times the mean serial
// section, capped, and nothing at all when Go has fewer processors than the
// engine has workers — there a poll only delays the goroutine it waits for.
func TestSpinBudget(t *testing.T) {
	w, _ := workloads.ByName("SP")
	budget := func(procs int, serialPerEpoch time.Duration) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		g, err := New(config.Baseline(), w.Kernel, WithParallelSMs(2))
		if err != nil {
			t.Fatal(err)
		}
		e := newParallelEngine(g)
		defer e.stop()
		e.prof.Epochs = 10
		e.prof.PrepareNS = 4 * int64(serialPerEpoch)
		e.prof.DrainNS = 6 * int64(serialPerEpoch)
		return e.spinBudget()
	}
	if got := budget(1, 100*time.Microsecond); got != 0 {
		t.Errorf("GOMAXPROCS 1, 2 workers: spin budget %v, want 0 (park at once)", got)
	}
	if got, want := budget(2, 100*time.Microsecond), spinFactor*100*time.Microsecond; got != want {
		t.Errorf("GOMAXPROCS 2, 2 workers: spin budget %v, want %v", got, want)
	}
	if got := budget(2, 10*time.Millisecond); got != maxSpin {
		t.Errorf("long serial sections: spin budget %v, want the %v cap", got, maxSpin)
	}
}

// TestParallelCancelStopsWorkers cancels a parallel run in mid-flight: it
// must return the context's error, and every worker goroutine must be gone
// soon after — whether the workers were spinning at the barrier (GOMAXPROCS
// covers them) or parked (it does not).
func TestParallelCancelStopsWorkers(t *testing.T) {
	w, ok := workloads.ByName("KM")
	if !ok {
		t.Fatal("unknown workload KM")
	}
	for _, c := range []struct {
		name  string
		procs int
	}{
		{"spinning", 4},
		{"parked", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			before := runtime.NumGoroutine()
			// Full-scale KM runs for most of a second; the deadline lands
			// a few dozen epochs in.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
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
