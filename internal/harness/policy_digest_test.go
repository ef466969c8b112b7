package harness

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"apres/internal/gpu"
	"apres/internal/workloads"
)

// policyDigestConfigs are the scheduler and prefetcher combinations the
// paper's figures compare: every scheduler alone, the pairings Figures 3, 4
// and 10 single out, and APRES.
var policyDigestConfigs = []string{
	"base", "gto", "twolevel", "ccws", "mascar", "pa", "laws",
	"lrr+str", "lrr+sld", "pa+str", "mascar+sld", "ccws+str", "laws+str", "apres",
}

const (
	policyDigestScale = 0.1
	// policyDigest was recorded at commit 08b7cc9, before the scheduler,
	// prefetcher and L1 miss-class code was rewritten for host speed. Those
	// rewrites may not move a simulated number, so a mismatch here is a
	// behaviour change to find, never a constant to re-record.
	policyDigest = "be617b12ff10a21fa387c9edd7be67a247bc6c314bc36ba16e1a8187842dbc77"
)

// TestPolicyDigest pins Cycles and every Total counter of all 15 workloads
// under every policy configuration, on the serial engine and on two SM
// workers. The goldens cover four configurations of three workloads; this
// covers the policy code they leave out (CCWS throttling, the group
// schedulers, MASCAR's saturated mode, SAP target selection).
func TestPolicyDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("420 cells at scale 0.1")
	}
	type cellName struct{ app, cfg string }
	var cells []cellName
	for _, app := range AllApps() {
		for _, cfg := range policyDigestConfigs {
			cells = append(cells, cellName{app, cfg})
		}
	}
	for _, smJobs := range []int{0, 2} {
		r := NewRunner(policyDigestScale, 0)
		r.SMJobs = smJobs
		lines, err := mapConcurrent(r.workers(), cells, func(_ int, c cellName) (string, error) {
			res, err := r.Run(c.app, c.cfg)
			return fmt.Sprintf("%s/%s %d %+v\n", c.app, c.cfg, res.Cycles, res.Total), err
		})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, line := range lines {
			h.Write([]byte(line))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != policyDigest {
			t.Errorf("SMJobs=%d: policy digest %s, want %s", smJobs, got, policyDigest)
		}
	}
}

// BenchmarkPolicyCells times one full-scale cell per iteration, serial
// engine, no memo or store, and reports the fastest iteration (the least
// disturbed one on a shared host) as host ms and as Mwinst/s. DESIGN.md's
// "Policy-path host cost" table is this benchmark's output, regenerated with
//
//	go test -run '^$' -bench BenchmarkPolicyCells -benchtime 5x ./internal/harness/
func BenchmarkPolicyCells(b *testing.B) {
	for _, app := range []string{"BFS", "SP", "SRAD", "HS", "KM"} {
		w, _ := workloads.ByName(app)
		for _, name := range []string{"base", "gto", "twolevel", "ccws", "mascar", "pa", "laws",
			"lrr+str", "lrr+sld", "ccws+str", "laws+str", "apres"} {
			cfg, err := NamedConfig(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(app+"/"+name, func(b *testing.B) {
				best, insts := time.Duration(1<<62), int64(0)
				for i := 0; i < b.N; i++ {
					start := time.Now()
					res, err := gpu.Simulate(cfg, w.Kernel)
					if err != nil {
						b.Fatal(err)
					}
					best, insts = min(best, time.Since(start)), res.Total.Instructions
				}
				b.ReportMetric(float64(best.Microseconds())/1e3, "min-ms")
				b.ReportMetric(float64(insts)/1e6/best.Seconds(), "Mwinst/s")
			})
		}
	}
}
