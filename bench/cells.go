package main

import (
	"crypto/sha256"
	"fmt"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/kernel"
	"apres/internal/workloads"
)

// simApps are the applications of the engine workloads: thrashing (KM),
// cache-sensitive (BFS, NW), store-heavy (HISTO), streaming (SRAD) and
// compute-bound (SP).
var simApps = []string{"BFS", "KM", "NW", "SRAD", "HISTO", "SP"}

// simConfigs cover the LRR/no-prefetch path and the LAWS+SAP path, so a gain
// on one scheduler path that costs the other shows.
var simConfigs = []string{"base", "apres"}

// fig10Configs are the columns of the Figure-10 core matrix.
var fig10Configs = []string{"base", "ccws+str", "apres"}

// cell is one (application, configuration) simulation.
type cell struct {
	app     string
	cfgName string
	cfg     config.Config
	kern    kernel.Kernel
}

func (c cell) String() string { return c.app + "/" + c.cfgName }

// buildCells resolves apps x cfgs in app-major order at the given kernel
// scale; sms overrides the SM count when non-zero.
func buildCells(apps, cfgs []string, scale float64, sms int) ([]cell, error) {
	cells := make([]cell, 0, len(apps)*len(cfgs))
	for _, app := range apps {
		w, ok := workloads.ByName(app)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", app)
		}
		kern := w.Kernel
		if scale != 1 {
			kern = kern.Scaled(scale)
		}
		for _, name := range cfgs {
			cfg, err := harness.NamedConfig(name)
			if err != nil {
				return nil, err
			}
			if sms > 0 {
				cfg.NumSMs = sms
			}
			cells = append(cells, cell{app: app, cfgName: name, cfg: cfg, kern: kern})
		}
	}
	return cells, nil
}

// sameOutcome reports whether two runs of one cell simulated the same thing:
// the cycle count and every counter.
func sameOutcome(a, b gpu.Result) bool {
	return a.Cycles == b.Cycles && a.Total == b.Total
}

// statsDigest hashes every cell's cycles and counters in cell order, so two
// commits (or two engines) compare exactly.
func statsDigest(cells []cell, results []gpu.Result) string {
	h := sha256.New()
	for i, c := range cells {
		fmt.Fprintf(h, "%s %d %+v\n", c, results[i].Cycles, results[i].Total)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
