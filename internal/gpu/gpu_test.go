package gpu

import (
	"testing"

	"apres/internal/config"
	"apres/internal/kernel"
	"apres/internal/workloads"
)

func smallCfg() config.Config {
	c := config.Baseline()
	c.NumSMs = 2
	return c
}

func streamKernel(warps, iters int) kernel.Kernel {
	return kernel.Kernel{
		Name:       "stream",
		WarpsPerSM: warps,
		Program: kernel.Program{
			Iterations: iters,
			Body: []kernel.Inst{
				{Op: kernel.OpLoad, PC: 0x10, Pattern: kernel.Pattern{
					Base: 1 << 24, SMStride: 1 << 30,
					WarpStride: 4096, IterStride: 4096 * 8, LaneStride: 4,
				}},
				{Op: kernel.OpALU, DependsOnMem: true, Repeat: 2},
			},
		},
	}
}

func TestSimulateRunsToCompletion(t *testing.T) {
	res, err := Simulate(smallCfg(), streamKernel(8, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.HitMaxCycles {
		t.Fatal("run hit the cycle bound")
	}
	wantInsts := int64(2 * 8 * 10 * 3)
	if res.Total.Instructions != wantInsts {
		t.Fatalf("instructions = %d, want %d", res.Total.Instructions, wantInsts)
	}
	if res.Cycles <= 0 || res.IPC() <= 0 {
		t.Fatalf("bad cycles/IPC: %d / %f", res.Cycles, res.IPC())
	}
	if len(res.PerSM) != 2 {
		t.Fatalf("PerSM entries = %d, want 2", len(res.PerSM))
	}
}

func TestSimulateValidatesConfigAndKernel(t *testing.T) {
	bad := smallCfg()
	bad.NumSMs = 0
	if _, err := Simulate(bad, streamKernel(2, 2)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Simulate(smallCfg(), kernel.Kernel{Name: "empty"}); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestMaxCyclesBound(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxCycles = 100
	res, err := Simulate(cfg, streamKernel(8, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitMaxCycles {
		t.Fatal("run should have hit MaxCycles")
	}
	if res.Cycles != 100 {
		t.Fatalf("cycles = %d, want 100", res.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	w, _ := workloads.ByName("SPMV")
	kern := w.Kernel.Scaled(0.1)
	cfg := smallCfg()
	a, err := Simulate(cfg, kern)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, kern)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Total != b.Total {
		t.Fatalf("two identical runs diverged: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestWithLoadStats(t *testing.T) {
	res, err := Simulate(smallCfg(), streamKernel(4, 5), WithLoadStats())
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadStats == nil || res.LoadStats[0x10] == nil {
		t.Fatal("load stats not collected")
	}
}

func TestLargerL1ReducesMisses(t *testing.T) {
	w, _ := workloads.ByName("LUD")
	kern := w.Kernel.Scaled(0.25)
	small := smallCfg()
	big := smallCfg()
	big.L1SizeBytes = 8 << 20
	rs, err := Simulate(small, kern)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(big, kern)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Total.L1MissRate() >= rs.Total.L1MissRate() {
		t.Fatalf("8MB L1 miss rate %.3f not below 32KB's %.3f",
			rb.Total.L1MissRate(), rs.Total.L1MissRate())
	}
	if rb.Cycles >= rs.Cycles {
		t.Fatalf("8MB L1 (%d cycles) not faster than 32KB (%d)", rb.Cycles, rs.Cycles)
	}
}

func TestEveryWorkloadRunsUnderEveryConfig(t *testing.T) {
	cfgs := map[string]config.Config{
		"baseline": smallCfg(),
		"apres": func() config.Config {
			c := config.APRES()
			c.NumSMs = 2
			return c
		}(),
		"ccws+str": smallCfg().WithScheduler(config.SchedCCWS).WithPrefetcher(config.PrefSTR),
	}
	for _, w := range workloads.All() {
		kern := w.Kernel.Scaled(0.05)
		for name, cfg := range cfgs {
			res, err := Simulate(cfg, kern)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name(), name, err)
			}
			if res.HitMaxCycles {
				t.Fatalf("%s/%s: hit cycle bound", w.Name(), name)
			}
			if res.Total.Instructions == 0 {
				t.Fatalf("%s/%s: no instructions executed", w.Name(), name)
			}
		}
	}
}

// TestTimelineDisabledByDefault pins Result.Timeline to nil: no run records
// a timeline, and its "Timeline": null is part of the API bytes.
func TestTimelineDisabledByDefault(t *testing.T) {
	res, err := Simulate(smallCfg(), streamKernel(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Fatalf("run recorded a timeline: %v", res.Timeline)
	}
}
