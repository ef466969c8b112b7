// Table I: per-static-load characterisation.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"apres/internal/core"
	"apres/internal/gpu"
)

// LoadRow is one Table I row.
type LoadRow struct {
	App       string
	PC        uint32
	PctLoad   float64 // fraction of the app's line references
	LinesRef  float64 // #L/#R
	MissRate  float64
	Stride    int64
	PctStride float64
}

// TableI characterises the static loads of the given apps under the
// baseline configuration, like the paper's Table I.
func (r *Runner) TableI(apps []string) ([]LoadRow, error) {
	// Characterise each app concurrently, then flatten in app order so the
	// table reads identically however the runs interleave.
	perApp, err := mapConcurrent(r.workers(), apps, func(_ int, app string) ([]LoadRow, error) {
		res, err := r.RunNamed(context.Background(), app, "base", true, RunOpts{})
		if err != nil {
			return nil, err
		}
		stats := loadsByFrequency(res)
		var total int64
		for _, ls := range stats {
			total += ls.Refs
		}
		var rows []LoadRow
		for _, ls := range stats {
			stride, share := ls.DominantStride()
			rows = append(rows, LoadRow{
				App:       app,
				PC:        uint32(ls.PC),
				PctLoad:   frac(ls.Refs, total),
				LinesRef:  ls.LinesPerRef(),
				MissRate:  ls.MissRate(),
				Stride:    stride,
				PctStride: share,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []LoadRow
	for _, app := range perApp {
		rows = append(rows, app...)
	}
	return rows, nil
}

// loadsByFrequency returns a run's per-PC load statistics, most frequently
// executed loads first, like the paper's Table I.
func loadsByFrequency(res gpu.Result) []*core.LoadStat {
	stats := make([]*core.LoadStat, 0, len(res.LoadStats))
	for _, ls := range res.LoadStats {
		stats = append(stats, ls)
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Refs != stats[j].Refs {
			return stats[i].Refs > stats[j].Refs
		}
		return stats[i].PC < stats[j].PC
	})
	return stats
}

// RenderTableI formats Table I rows as aligned text.
func RenderTableI(rows []LoadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: characteristics of frequently executed loads\n")
	fmt.Fprintf(&b, "%-6s %-8s %7s %7s %9s %10s %8s\n",
		"App", "PC", "%Load", "#L/#R", "MissRate", "Stride", "%Stride")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %#-8x %6.1f%% %7.2f %9.2f %10d %7.1f%%\n",
			r.App, r.PC, r.PctLoad*100, r.LinesRef, r.MissRate, r.Stride, r.PctStride*100)
	}
	return b.String()
}
