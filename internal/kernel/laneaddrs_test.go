package kernel_test

import (
	"path/filepath"
	"testing"

	"apres/internal/arch"
	"apres/internal/kernel"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// checkLaneAddrs holds LaneAddrs to its definition — dst[lane] == Addr(sm,
// warp, iter, lane) — over a grid of SMs, warps (slots, refilled logical IDs,
// WarpShare boundaries) and iterations (wrap points included).
func checkLaneAddrs(t *testing.T, name string, p *kernel.Pattern) {
	t.Helper()
	lanes := make([]arch.Addr, arch.WarpSize)
	for _, sm := range []int{0, 1, 14} {
		for _, warp := range []arch.WarpID{0, 1, 5, 31, 47, 48, 63, 200, 4097} {
			for _, iter := range []int{0, 1, 2, 7, 63, 64, 1000, 65537} {
				p.LaneAddrs(lanes, sm, warp, iter)
				for lane, got := range lanes {
					if want := p.Addr(sm, warp, iter, lane); got != want {
						t.Fatalf("%s: sm %d warp %d iter %d lane %d: LaneAddrs %#x, Addr %#x",
							name, sm, warp, iter, lane, got, want)
					}
				}
			}
		}
	}
}

// checkKernel runs checkLaneAddrs over every load and store of every phase.
func checkKernel(t *testing.T, name string, k *kernel.Kernel) (patterns int) {
	t.Helper()
	for ph := 0; ph < k.Program.NumPhases(); ph++ {
		body, _ := k.Program.PhaseAt(ph)
		for i := range body {
			if in := &body[i]; in.Op == kernel.OpLoad || in.Op == kernel.OpStore {
				checkLaneAddrs(t, name, &in.Pattern)
				patterns++
			}
		}
	}
	return patterns
}

func TestLaneAddrsMatchesAddrOnEveryWorkload(t *testing.T) {
	for _, w := range workloads.All() {
		if n := checkKernel(t, w.Name(), &w.Kernel); n == 0 {
			t.Errorf("%s: no memory instructions checked", w.Name())
		}
	}
}

func TestLaneAddrsMatchesAddrOnExampleSpecs(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, path := range paths {
		s, err := workspec.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkKernel(t, filepath.Base(path), &w.Kernel)
	}
	// The recorded trace compiles to Table-backed patterns.
	recs, err := workspec.ParseTraceFile("../../examples/traces/tiled_gather.csv")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workspec.SpecFromTrace("tiled_gather", recs).Compile()
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for i := range w.Kernel.Program.Body {
		if w.Kernel.Program.Body[i].Pattern.Table != nil {
			tables++
		}
	}
	if tables == 0 {
		t.Fatal("trace replay compiled to no Table-backed pattern")
	}
	checkKernel(t, "tiled_gather", &w.Kernel)
}

// TestLaneAddrsMatchesAddrOnEdgePatterns covers the shapes the hoisted path
// must get right or must decline: every wrap, WarpShare, Random, LaneRandom,
// Table, and sums that go negative part-way across the warp (the fold is per
// lane).
func TestLaneAddrsMatchesAddrOnEdgePatterns(t *testing.T) {
	table := &kernel.AddrTable{
		Warps: 3, Iters: 2,
		Addrs: []arch.Addr{0, 128, 4096, 8192, 1 << 40, 77},
		Sizes: []int32{128, 4, 4096, 128, 64, 1},
	}
	for name, p := range map[string]kernel.Pattern{
		"coalesced":         {Base: 1 << 32, SMStride: 1 << 24, WarpStride: 128, IterStride: 6144, LaneStride: 4},
		"uncoalesced":       {Base: 4096, WarpStride: 4352, IterStride: 128, LaneStride: 4352},
		"wrap":              {Base: 1 << 20, WarpStride: 128, IterStride: 6144, LaneStride: 4, WrapBytes: 16 << 10},
		"iter-wrap":         {Base: 1 << 20, WarpStride: 8192, IterStride: 128, IterWrapBytes: 1024, LaneStride: 4},
		"both-wraps":        {WarpStride: 1000, IterStride: 300, IterWrapBytes: 700, WrapBytes: 4000, LaneStride: 8},
		"negative-strides":  {Base: 1 << 30, WarpStride: -128, IterStride: -640, IterWrapBytes: 4096, WrapBytes: 1 << 16, LaneStride: 4},
		"warp-share":        {Base: 1 << 20, WarpStride: 128, IterStride: 128, LaneStride: 4, WarpShare: 4},
		"warp-invariant":    {Base: 1 << 20, WarpStride: 128, IterStride: 128, LaneStride: 4, WarpShare: 64},
		"random":            {Base: 1 << 28, Random: true, WrapBytes: 1 << 20, LaneStride: 4, Seed: 9},
		"random-no-wrap":    {Base: 1 << 28, Random: true, LaneStride: 4, Seed: 9},
		"random-shared":     {Base: 1 << 28, Random: true, WrapBytes: 1 << 20, LaneStride: 4, Seed: 3, WarpShare: 2},
		"lane-random":       {Base: 1 << 28, WarpStride: 128, LaneRandom: true, WrapBytes: 1 << 20, Seed: 5, WarpShare: 2},
		"lane-random-both":  {Random: true, LaneRandom: true, WrapBytes: 1 << 16, Seed: 1},
		"negative-base":     {Base: arch.Addr(1<<64 - 1<<20), WarpStride: 128, IterStride: 128, LaneStride: 4},
		"crosses-zero":      {Base: arch.Addr(1<<64 - 64), LaneStride: 4}, // lanes 0-15 negative, 16-31 not
		"crosses-zero-down": {Base: 60, LaneStride: -4},
		"negative-sm":       {Base: 1 << 10, SMStride: -4096, WarpStride: 128, LaneStride: 4},
		"table":             {Table: table, SMStride: 1 << 30, WarpStride: 999, LaneStride: 999},
		"table-negative":    {Table: table, SMStride: -(1 << 41)},
	} {
		p := p
		checkLaneAddrs(t, name, &p)
	}
}
