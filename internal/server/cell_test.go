package server

import (
	"testing"

	"apres/internal/config"
	"apres/internal/workspec"
)

// TestPlacementKeysPinned pins the strings a cluster coordinator ranks
// nodes by. A changed key silently moves every warm cell to another node,
// so these are literals, and a simulate must land where the equivalent
// sweep cell does.
func TestPlacementKeysPinned(t *testing.T) {
	sp, err := workspec.Parse([]byte(`{"specVersion":1,"name":"tiny","kernels":[{"iterations":2,"body":[{"op":"alu"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	inline := config.Baseline()
	inline.L1SizeBytes = 64 << 10

	for _, c := range []struct {
		name string
		cell Cell
		ls   bool
		want string
	}{
		{"named", Cell{Workload: "BFS", Config: "apres"}, false, "BFS\x00apres\x00false"},
		{"named loadStats", Cell{Workload: "BFS", Config: "apres"}, true, "BFS\x00apres\x00true"},
		{"spec", Cell{Spec: sp, Config: "ccws+str"}, false, "spec:tiny:8781ab612c29\x00ccws+str\x00false"},
	} {
		if got := c.cell.ID(c.ls); got != c.want {
			t.Errorf("%s: Cell.ID = %q, want %q", c.name, got, c.want)
		}
	}

	for _, c := range []struct {
		name string
		req  SimulateRequest
		want string
	}{
		{"named", SimulateRequest{Workload: "BFS", Config: "apres"}, "BFS\x00apres\x00false"},
		{"named loadStats", SimulateRequest{Workload: "BFS", Config: "apres", LoadStats: true}, "BFS\x00apres\x00true"},
		{"default config", SimulateRequest{Workload: "BFS"}, "BFS\x00base\x00false"},
		{"inline config", SimulateRequest{Workload: "SP", ConfigInline: &inline}, "SP\x00cfg:b352f526\x00false"},
		{"spec", SimulateRequest{Spec: sp, Config: "ccws+str"}, "spec:tiny:8781ab612c29\x00ccws+str\x00false"},
	} {
		got, err := c.req.CellID()
		if err != nil || got != c.want {
			t.Errorf("%s: CellID = %q, %v; want %q", c.name, got, err, c.want)
		}
	}

	// A simulate lands where the equivalent sweep cell lands.
	for _, loadStats := range []bool{false, true} {
		sweep := SweepRequest{Workloads: []string{"BFS"}, Specs: []*workspec.Spec{sp}, Configs: []string{"apres", "ccws+str"}, LoadStats: loadStats}
		cells, err := sweep.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			sim := SimulateRequest{Workload: cell.Workload, Spec: cell.Spec, Config: cell.Config, LoadStats: loadStats}
			want, err := sim.CellID()
			if err != nil {
				t.Fatal(err)
			}
			if got := cell.ID(loadStats); got != want {
				t.Errorf("sweep cell %s key %q, simulate key %q", cell.Name(), got, want)
			}
		}
	}
}
