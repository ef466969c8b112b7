package workspec_test

// Golden equivalence: the checked-in example specs under examples/specs are
// the source-of-truth serialisations of the 15 Table-IV workloads. This test
// pins them three ways:
//
//  1. every spec file is byte-identical to the canonical encoding of the
//     spec decompiled from the hand-coded constructor (so a compiler or
//     schema change that alters the files is caught, and the files never
//     drift from canonical form);
//  2. every spec compiles to a kernel program deep-equal to the hand-coded
//     one (bit-identical simulation follows, since the engine is
//     deterministic in the program);
//  3. a simulation matrix (base/apres/ccws x -smjobs 1/4) actually runs the
//     spec-built workloads and checks cycles/IPC against the named runs.
//
// Regenerate the files after an intentional schema change with:
//
//	go test ./internal/workspec -run TestExampleSpecs -update-specs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"apres/internal/harness"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

var updateSpecs = flag.Bool("update-specs", false, "rewrite examples/specs/*.json from the hand-coded workload constructors")

const specDir = "../../examples/specs"

func TestExampleSpecsMatchWorkloads(t *testing.T) {
	if *updateSpecs {
		if err := os.MkdirAll(specDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads.All() {
		want, err := workspec.FromWorkload(w)
		if err != nil {
			t.Fatalf("%s: FromWorkload: %v", w.Name(), err)
		}
		path := filepath.Join(specDir, w.Name()+".json")
		if *updateSpecs {
			if err := os.WriteFile(path, want.Encode(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-specs)", w.Name(), err)
		}
		// Byte-identical to the canonical encoding.
		if string(data) != string(want.Encode()) {
			t.Errorf("%s: spec file is not the canonical encoding of the hand-coded workload (regenerate with -update-specs)", w.Name())
			continue
		}
		got, err := workspec.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		cw, err := got.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name(), err)
		}
		if cw.Category != w.Category {
			t.Errorf("%s: category %v, want %v", w.Name(), cw.Category, w.Category)
		}
		if !reflect.DeepEqual(cw.Kernel, w.Kernel) {
			t.Errorf("%s: compiled kernel differs from the hand-coded constructor", w.Name())
		}
	}
}

// TestExampleSpecsAllCompile parses and compiles every spec under
// examples/specs, including the non-paper examples, mirroring the CI
// validation leg.
func TestExampleSpecsAllCompile(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < len(workloads.All()) {
		t.Fatalf("only %d example specs found; want at least the %d paper workloads", len(paths), len(workloads.All()))
	}
	for _, p := range paths {
		s, err := workspec.ParseFile(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("%s: compile: %v", p, err)
		}
	}
}

// TestSpecSimEquivalenceMatrix runs every paper spec through the simulator
// under base/apres/ccws with both the serial and the 4-way-sharded SM
// engine and pins the results against the equivalent named-workload runs.
func TestSpecSimEquivalenceMatrix(t *testing.T) {
	configs := []string{"base", "apres", "ccws"}
	smJobs := []int{1, 4}
	apps := workloads.All()
	if testing.Short() {
		configs = configs[:1]
		smJobs = smJobs[:1]
		apps = apps[:4]
	}
	// One runner per -smjobs value: the memo cache deliberately ignores
	// SMJobs (results are bit-identical), so a shared runner would serve
	// the sharded runs from the serial memo and never exercise the
	// parallel engine.
	runners := map[int]*harness.Runner{}
	for _, sj := range smJobs {
		r := harness.NewRunner(0.02, 2)
		r.Jobs = 8
		runners[sj] = r
	}
	for _, w := range apps {
		spec, err := workspec.FromWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfgName := range configs {
			cfg, err := harness.NamedConfig(cfgName)
			if err != nil {
				t.Fatal(err)
			}
			for _, sj := range smJobs {
				r := runners[sj]
				name := fmt.Sprintf("%s/%s/smjobs=%d", w.Name(), cfgName, sj)
				o := harness.RunOpts{SMJobs: sj}
				fromSpec, err := r.Do(context.Background(), harness.Request{Spec: spec, Inline: cfg, RunOpts: o})
				if err != nil {
					t.Fatalf("%s: spec run: %v", name, err)
				}
				named, err := r.Do(context.Background(), harness.Request{Workload: w.Name(), Inline: cfg, RunOpts: o})
				if err != nil {
					t.Fatalf("%s: named run: %v", name, err)
				}
				if fromSpec.Result.Cycles != named.Result.Cycles || fromSpec.Result.Total != named.Result.Total {
					t.Errorf("%s: spec-built run diverged: %d cycles vs %d", name, fromSpec.Result.Cycles, named.Result.Cycles)
				}
			}
		}
	}
}
