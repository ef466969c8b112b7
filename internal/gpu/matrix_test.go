package gpu

import (
	"reflect"
	"testing"

	"apres/internal/config"
	"apres/internal/kernel"
	"apres/internal/stats"
	"apres/internal/trace"
	"apres/internal/workloads"
)

// equivScale keeps the 15x3 run matrix fast while still exercising every
// workload's access patterns and every scheduler/prefetcher interaction.
const equivScale = 0.05

// equivConfigs are the three run modes the equivalence matrix covers: the
// plain baseline, the full APRES coupling (LAWS+SAP), and CCWS (the
// scheduler whose lazy score decay is the most delicate interaction with
// cycle skipping).
func equivConfigs() []struct {
	name string
	cfg  config.Config
} {
	return []struct {
		name string
		cfg  config.Config
	}{
		{"base", config.Baseline()},
		{"apres", config.APRES()},
		{"ccws", config.Baseline().WithScheduler(config.SchedCCWS)},
	}
}

// matrixCase is one (workload, config) cell of the equivalence matrix, with
// the kernel already scaled and the SM count already shrunk.
type matrixCase struct {
	WName string
	CName string
	Cfg   config.Config
	Kern  kernel.Kernel
}

// runMatrix runs fn as a parallel subtest on every workload x config cell:
// all 15 Table I workloads x {base, apres, ccws}, at equivScale with
// numSMs SMs. It is the single driver behind the skip-, trace- and
// parallel-equivalence suites so they cannot drift apart.
func runMatrix(t *testing.T, numSMs int, fn func(t *testing.T, c matrixCase)) {
	t.Helper()
	for _, w := range workloads.All() {
		for _, cc := range equivConfigs() {
			c := matrixCase{
				WName: w.Name(),
				CName: cc.name,
				Cfg:   cc.cfg,
				Kern:  w.Kernel.Scaled(equivScale),
			}
			c.Cfg.NumSMs = numSMs
			t.Run(c.WName+"/"+c.CName, func(t *testing.T) {
				t.Parallel()
				fn(t, c)
			})
		}
	}
}

// equivRun bundles everything observable from one run: the Result and, for
// traced runs, the full event stream and interval series.
type equivRun struct {
	Res     Result
	Events  []trace.Event
	Samples []trace.Sample
}

// runEquivCell executes one engine variant on one matrix cell with the
// standard observability options (timeline + load stats, plus a collecting
// tracer when traced), so every field of the run can be compared
// bit-for-bit against another variant.
func runEquivCell(t *testing.T, c matrixCase, traced bool, extra ...Option) equivRun {
	t.Helper()
	opts := append([]Option{WithTimeline(64), WithLoadStats()}, extra...)
	var sink *trace.CollectSink
	var tr *trace.Tracer
	if traced {
		sink = &trace.CollectSink{}
		tr = trace.New(sink, 64)
		opts = append(opts, WithTrace(tr))
	}
	res, err := Simulate(c.Cfg, c.Kern, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if (c.WName == "KM" || c.WName == "BFS") && res.Total.L1Stalls == 0 {
		// These are the cells that fill the L1's MSHR file; without a stall
		// no LSU ever sleeps on one and every suite built on this helper
		// says nothing about that path.
		t.Fatalf("%s/%s recorded no L1 stall: the blocked-LSU path went unexercised (raise the cell's scale)", c.WName, c.CName)
	}
	r := equivRun{Res: res}
	if traced {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		r.Events = sink.Events
		r.Samples = sink.Samples
	}
	return r
}

func countByCategory(evs []trace.Event) map[string]int {
	m := make(map[string]int)
	for _, e := range evs {
		m[e.Kind.Category()]++
	}
	return m
}

// requireSameRun asserts two runs are bit-identical in every observable:
// cycle count, aggregate and per-SM stats, timeline, load characterisation,
// the whole Result, and (for traced runs) the event stream and interval
// series element by element. Any divergence is a correctness bug in an
// engine variant, never acceptable drift.
func requireSameRun(t *testing.T, label string, want, got equivRun) {
	t.Helper()
	// EngineStats is execution metadata (epoch counts differ between serial
	// and parallel runs by design); equivalence is over everything else.
	want.Res.EngineStats = stats.EngineStats{}
	got.Res.EngineStats = stats.EngineStats{}
	if want.Res.Cycles != got.Res.Cycles {
		t.Fatalf("%s: cycles diverge: want %d got %d", label, want.Res.Cycles, got.Res.Cycles)
	}
	if !reflect.DeepEqual(want.Res.Total, got.Res.Total) {
		t.Fatalf("%s: aggregate stats diverge:\nwant: %+v\ngot:  %+v", label, want.Res.Total, got.Res.Total)
	}
	if !reflect.DeepEqual(want.Res.PerSM, got.Res.PerSM) {
		t.Fatalf("%s: per-SM stats diverge:\nwant: %+v\ngot:  %+v", label, want.Res.PerSM, got.Res.PerSM)
	}
	if !reflect.DeepEqual(want.Res.Timeline, got.Res.Timeline) {
		t.Fatalf("%s: timelines diverge: want %d samples, got %d\nwant: %+v\ngot:  %+v",
			label, len(want.Res.Timeline), len(got.Res.Timeline), want.Res.Timeline, got.Res.Timeline)
	}
	if !reflect.DeepEqual(want.Res, got.Res) {
		t.Fatalf("%s: results diverge outside the fields above (LoadStats or flags):\nwant: %+v\ngot:  %+v",
			label, want.Res, got.Res)
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("%s: event counts diverge: want %d got %d (by category: want=%v got=%v)",
			label, len(want.Events), len(got.Events),
			countByCategory(want.Events), countByCategory(got.Events))
	}
	for i := range want.Events {
		if want.Events[i] != got.Events[i] {
			t.Fatalf("%s: event %d diverges:\nwant: %+v\ngot:  %+v",
				label, i, want.Events[i], got.Events[i])
		}
	}
	if !reflect.DeepEqual(want.Samples, got.Samples) {
		t.Fatalf("%s: interval series diverge: want %d samples, got %d\nwant: %+v\ngot:  %+v",
			label, len(want.Samples), len(got.Samples), want.Samples, got.Samples)
	}
}
