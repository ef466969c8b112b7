package gpu

import (
	"testing"

	"apres/internal/config"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// requireBareL2 fails if any L2 slice holds miss-classification or
// early-eviction state: that bookkeeping belongs to the L1s, nothing reads it
// below them, and a slice that kept it would grow a set by one entry per
// distinct line for the whole run.
func requireBareL2(t *testing.T, g *GPU) {
	t.Helper()
	for p := 0; p < g.cfg.DRAMPartitions; p++ {
		l2 := g.memSys.L2(p)
		if n, e := l2.LinesEverMissed(), l2.UnresolvedEarlyEvictions(); n != 0 || e != 0 {
			t.Errorf("L2 slice %d tracks %d seen lines and %d evicted prefetches; want none", p, n, e)
		}
	}
}

// TestL2SlicesCarryNoL1State runs the fill storm at full scale — 1.84M
// distinct lines, every one an L2 miss — and checks the slices come out bare
// and the result is the one the simulator produced while they still tracked
// every line (counters recorded at the commit before the change; after an
// intentional timing-model change re-record them from `go run ./cmd/apressim
// -spec examples/specs/fill_storm.json`). A second,
// smaller run sends prefetches through the L2 (prefetch-allocated lines
// evicted unused are the other thing a slice used to remember).
func TestL2SlicesCarryNoL1State(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation")
	}
	spec, err := workspec.ParseFile("../../examples/specs/fill_storm.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(config.Baseline(), w.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(w.Name())
	requireBareL2(t, g)
	tot := res.Total
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Cycles", res.Cycles, 1037130},
		{"Instructions", tot.Instructions, 172800},
		{"IssueStallCycles", tot.IssueStallCycles, 15384090},
		{"L1ColdMisses", tot.L1ColdMisses, 1843200},
		{"L1CapConfMisses", tot.L1CapConfMisses, 0},
		{"L1Stalls", tot.L1Stalls, 13705440},
		{"L2Misses", tot.L2Misses, 1843200},
		{"GPUL2Hits", tot.GPUL2Hits, 0},
		{"DRAMQueueCycles", tot.DRAMQueueCycles, 122880},
		{"MemLatencySum", tot.MemLatencySum, 2129445120},
	} {
		if c.got != c.want {
			t.Errorf("fill_storm %s = %d, want %d", c.name, c.got, c.want)
		}
	}

	sp, ok := workloads.ByName("SP")
	if !ok {
		t.Fatal("unknown workload SP")
	}
	g, err = New(config.APRES(), sp.Kernel.Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Run("SP"); res.Total.PrefetchIssued == 0 {
		t.Fatal("SP under APRES issued no prefetch: the L2 saw no prefetch reads")
	}
	requireBareL2(t, g)
}
