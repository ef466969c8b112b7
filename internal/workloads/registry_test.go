package workloads_test

import (
	"reflect"
	"testing"

	"apres/internal/kernel"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// scribble overwrites everything reachable through w's slices.
func scribble(w workloads.Workload) {
	junk := kernel.Inst{Op: kernel.OpShared, PC: 0xDEAD, Repeat: 99}
	for i := range w.Kernel.Program.Body {
		w.Kernel.Program.Body[i] = junk
	}
	for i := range w.Kernel.Program.Tail {
		for j := range w.Kernel.Program.Tail[i].Body {
			w.Kernel.Program.Tail[i].Body[j] = junk
		}
		w.Kernel.Program.Tail[i].Iterations = -1
	}
}

// TestRegistryIsolated: nothing a caller does to a returned Workload — or to
// what Scaled, workspec.FromWorkload and Spec.Compile derive from it — shows
// in a later lookup.
func TestRegistryIsolated(t *testing.T) {
	want := workloads.Fresh()
	check := func(after string) {
		t.Helper()
		if got := workloads.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("All() after %s differs from fresh constructors", after)
		}
		for i, name := range workloads.Names() {
			got, ok := workloads.ByName(name)
			if !ok || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("ByName(%s) after %s differs from its fresh constructor", name, after)
			}
		}
	}
	check("nothing")

	for _, name := range workloads.Names() {
		w, _ := workloads.ByName(name)
		scribble(w)
	}
	check("overwriting every ByName result")

	for _, w := range workloads.All() {
		scribble(w)
	}
	check("overwriting every All result")

	for _, name := range workloads.Names() {
		w, _ := workloads.ByName(name)
		w.Kernel = w.Kernel.Scaled(0.01)
		scribble(w)
	}
	check("Scaled")

	for _, name := range workloads.Names() {
		w, _ := workloads.ByName(name)
		spec, err := workspec.FromWorkload(w)
		if err != nil {
			t.Fatalf("FromWorkload(%s): %v", name, err)
		}
		compiled, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		scribble(compiled)
		scribble(w)
	}
	check("FromWorkload + Compile")

	names := workloads.Names()
	for i := range names {
		names[i] = "x"
	}
	check("overwriting Names()")
}

func TestNamesMatchConstructors(t *testing.T) {
	names, ws := workloads.Names(), workloads.Fresh()
	if len(names) != len(ws) {
		t.Fatalf("Names() lists %d apps, the constructors build %d", len(names), len(ws))
	}
	for i, w := range ws {
		if names[i] != w.Name() {
			t.Errorf("registry entry %d is named %q, its constructor builds %q", i, names[i], w.Name())
		}
	}
}

var sinkWorkload workloads.Workload

func BenchmarkByName(b *testing.B) {
	names := workloads.Names()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWorkload, _ = workloads.ByName(names[i%len(names)])
	}
}
