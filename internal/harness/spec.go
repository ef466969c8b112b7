// Declarative workloads (internal/workspec) in the harness. A Request with a
// Spec flows through Runner.Do like one of the 15 named workloads; only its
// identity differs — spec runs are keyed by the spec's canonical content
// digest, and their store entries carry the workspec schema+compiler
// version folded into the version stamp so compilation changes invalidate
// them independently of the model version.
package harness

import (
	"context"
	"fmt"

	"apres/internal/arch"
	"apres/internal/core"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// SpecSweep simulates every spec under every named configuration
// concurrently and charts IPC (rows = configs, columns = specs by name).
func (r *Runner) SpecSweep(ctx context.Context, specs []*workspec.Spec, cfgNames []string) (*Chart, error) {
	var cells []Request
	for _, s := range specs {
		for _, c := range cfgNames {
			cells = append(cells, Request{Spec: s, Config: c})
		}
	}
	vals, err := mapConcurrent(r.workers(), cells, func(_ int, c Request) (float64, error) {
		out, err := r.Do(ctx, c)
		return out.Result.IPC(), err
	})
	if err != nil {
		return nil, err
	}
	chart := &Chart{Title: "Spec sweep: IPC", Format: "%.3f"}
	for _, s := range specs {
		chart.Apps = append(chart.Apps, s.Name)
	}
	for _, cfgName := range cfgNames {
		chart.Series = append(chart.Series, Series{Name: cfgName, Values: map[string]float64{}})
	}
	for i, c := range cells {
		si := i % len(cfgNames)
		chart.Series[si].Values[c.Spec.Name] = vals[i]
	}
	return chart, nil
}

// MeasuredSpec characterises a workload under the baseline configuration
// and emits the measurements as a workspec: each static load's measured
// dominant inter-warp stride, locality (#L/#R), coalescing degree (lines
// per access), working-set size and stride regularity become the
// corresponding PatternSpec knobs, and the kernel geometry and instruction
// mix are recovered from the run's aggregate counters. This closes the
// loop simulate -> characterize -> re-simulate from spec.
//
// The emission is a measured approximation, not a decompilation: regular
// loads (dominant-stride share >= 0.5) become linear strided patterns,
// irregular ones become Random patterns over the measured working set, and
// shared-memory traffic and per-load jitter are folded into plain ALU
// bursts. Iteration counts reflect the run as executed, i.e. after the
// Runner's Scale was applied.
func (r *Runner) MeasuredSpec(ctx context.Context, app string) (*workspec.Spec, error) {
	res, err := r.RunNamed(ctx, app, "base", true, RunOpts{})
	if err != nil {
		return nil, err
	}
	w, _ := workloads.ByName(app) // the run has vouched for the name
	stats := loadsByFrequency(res)
	if len(stats) == 0 {
		return nil, fmt.Errorf("harness: %s: run recorded no load statistics", app)
	}

	launches := int64(w.Kernel.TotalLaunches())
	// Every load issues once per body pass, so the busiest load's per-warp
	// issue count recovers the executed iteration count.
	iters := int64(1)
	for _, ls := range stats {
		if n := (ls.Issues + launches - 1) / launches; n > iters {
			iters = n
		}
	}
	// ALU budget: aggregate instructions minus the measured memory issues,
	// spread evenly across the loads of one iteration.
	warpInsts := res.Total.Instructions / int64(res.Config.NumSMs) / launches
	memPerIter := int64(len(stats))
	aluPerLoad := (warpInsts/iters - memPerIter) / int64(len(stats))
	if aluPerLoad < 1 {
		aluPerLoad = 1
	}

	ks := workspec.KernelSpec{
		WarpsPerSM:       w.Kernel.WarpsPerSM,
		LaunchWarpsPerSM: w.Kernel.LaunchWarpsPerSM,
		Iterations:       int(iters),
	}
	for i, ls := range stats {
		p := measuredPattern(ls, i, w.Kernel.WarpsPerSM)
		ks.Body = append(ks.Body,
			workspec.InstSpec{Op: "load", PC: uint32(ls.PC), Pattern: p},
			workspec.InstSpec{Op: "alu", DependsOnMem: true},
		)
		if aluPerLoad > 1 {
			ks.Body = append(ks.Body, workspec.InstSpec{Op: "alu", Repeat: int(aluPerLoad - 1)})
		}
	}
	s := &workspec.Spec{
		SpecVersion: workspec.Version,
		Name:        app + "-measured",
		Category:    w.Category.String(),
		Description: fmt.Sprintf("measured from a %s run at scale %g (characterize -spec-out)", app, r.Scale),
		Kernels:     []workspec.KernelSpec{ks},
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %s: measured spec invalid: %w", app, err)
	}
	return s, nil
}

// measuredPattern maps one load's measured statistics onto pattern knobs.
func measuredPattern(ls *core.LoadStat, idx, warps int) *workspec.PatternSpec {
	// Address-space layout like internal/workloads: each load gets its own
	// array, per-SM data separated.
	p := &workspec.PatternSpec{
		Base:     uint64(idx+1) << 32,
		SMStride: 1 << 26,
	}
	// Coalescing degree: average lines per access sets the lane span.
	avgLines := int64(1)
	if ls.Issues > 0 {
		avgLines = (ls.Refs + ls.Issues - 1) / ls.Issues
	}
	p.LaneStride = avgLines * arch.LineSizeBytes / arch.WarpSize
	if p.LaneStride < 4 {
		p.LaneStride = 4
	}
	stride, share := ls.DominantStride()
	workingSet := ls.UniqueLines * arch.LineSizeBytes
	switch {
	case share >= 0.5 && stride != 0:
		// Regular: the measured inter-warp stride, advancing a full
		// warp-round per iteration (the streaming idiom).
		p.WarpStride = stride
		p.IterStride = stride * int64(warps)
	default:
		// Irregular: pseudo-random draws over the measured working set.
		p.Random = true
		p.WrapBytes = nextPow2(workingSet)
		p.Seed = uint64(ls.PC)
		if ls.LinesPerRef() < 0.3 {
			// High inter-warp locality: the warps share the footprint.
			p.WarpShare = 64
		}
	}
	return p
}

func nextPow2(v int64) int64 {
	if v < arch.LineSizeBytes {
		return arch.LineSizeBytes
	}
	n := int64(arch.LineSizeBytes)
	for n < v {
		n <<= 1
	}
	return n
}
