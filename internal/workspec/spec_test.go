package workspec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"apres/internal/workloads"
)

// minimalSpec returns a small valid spec for mutation in error tests.
func minimalSpec() *Spec {
	return &Spec{
		SpecVersion: Version,
		Name:        "mini",
		Category:    "compute-intensive",
		Kernels: []KernelSpec{{
			Iterations: 4,
			Body: []InstSpec{
				{Op: "load", PC: 0x100, Pattern: &PatternSpec{Base: 1 << 32, WarpStride: 512, LaneStride: 4}},
				{Op: "alu", DependsOnMem: true},
			},
		}},
	}
}

func TestParseAcceptsMinimalSpec(t *testing.T) {
	s := minimalSpec()
	got, err := Parse(s.Encode())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("Parse round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string // substrings the error must contain
	}{
		{"syntax", "{\n  \"specVersion\": 1,\n  oops\n}", []string{"3:"}},
		{"unknown field", `{"specVersion":1,"name":"x","bogus":3,"kernels":[]}`, []string{"bogus"}},
		{"wrong type", "{\n\"specVersion\": \"one\"\n}", []string{"2:", "specVersion"}},
		{"trailing garbage", `{"specVersion":1,"name":"x","kernels":[{"iterations":1,"body":[{"op":"alu"}]}]} extra`, []string{"trailing"}},
		{"bad version", `{"specVersion":99,"name":"x","kernels":[{"iterations":1,"body":[{"op":"alu"}]}]}`, []string{"specVersion", "99"}},
		{"bad name", `{"specVersion":1,"name":"bad name!","kernels":[{"iterations":1,"body":[{"op":"alu"}]}]}`, []string{"name"}},
		{"no kernels", `{"specVersion":1,"name":"x","kernels":[]}`, []string{"kernels", "at least one"}},
		{"bad category", `{"specVersion":1,"name":"x","category":"weird","kernels":[{"iterations":1,"body":[{"op":"alu"}]}]}`, []string{"category", "weird"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.in)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   []string
	}{
		{"body and trace", func(s *Spec) {
			s.Kernels[0].Trace = &TraceSpec{Records: []TraceRecord{{Warp: 0, PC: 1, Addr: 0, Size: 128}}}
		}, []string{"kernels[0]", "mutually exclusive"}},
		{"neither body nor trace", func(s *Spec) {
			s.Kernels[0].Body = nil
		}, []string{"kernels[0]", "body or a trace"}},
		{"zero iterations", func(s *Spec) {
			s.Kernels[0].Iterations = 0
		}, []string{"kernels[0].iterations"}},
		{"trace with iterations", func(s *Spec) {
			s.Kernels[0].Body = nil
			s.Kernels[0].Trace = &TraceSpec{Records: []TraceRecord{{Warp: 0, PC: 1, Size: 128}}}
		}, []string{"kernels[0].iterations", "trace"}},
		{"load without pc", func(s *Spec) {
			s.Kernels[0].Body[0].PC = 0
		}, []string{"kernels[0].body[0].pc"}},
		{"load without pattern", func(s *Spec) {
			s.Kernels[0].Body[0].Pattern = nil
		}, []string{"kernels[0].body[0].pattern"}},
		{"alu with pc", func(s *Spec) {
			s.Kernels[0].Body[1].PC = 0x200
		}, []string{"kernels[0].body[1].pc", "alu"}},
		{"alu with pattern", func(s *Spec) {
			s.Kernels[0].Body[1].Pattern = &PatternSpec{}
		}, []string{"kernels[0].body[1].pattern"}},
		{"unknown op", func(s *Spec) {
			s.Kernels[0].Body[1].Op = "jump"
		}, []string{"kernels[0].body[1].op", "jump"}},
		{"duplicate pc", func(s *Spec) {
			s.Kernels[0].Body = append(s.Kernels[0].Body,
				InstSpec{Op: "store", PC: 0x100, Pattern: &PatternSpec{LaneStride: 4}})
		}, []string{"kernels[0].body[2].pc", "duplicate"}},
		{"negative repeat", func(s *Spec) {
			s.Kernels[0].Body[1].Repeat = -1
		}, []string{"kernels[0].body[1].repeat"}},
		{"random without wrap", func(s *Spec) {
			s.Kernels[0].Body[0].Pattern = &PatternSpec{Random: true}
		}, []string{"kernels[0].body[0].pattern.wrapBytes", "random"}},
		{"negative wrap", func(s *Spec) {
			s.Kernels[0].Body[0].Pattern.WrapBytes = -4
		}, []string{"kernels[0].body[0].pattern.wrapBytes"}},
		{"warpsPerSM out of range", func(s *Spec) {
			s.Kernels[0].WarpsPerSM = 65
		}, []string{"kernels[0].warpsPerSM"}},
		{"second kernel warpsPerSM", func(s *Spec) {
			s.Kernels[0].WarpsPerSM = 48
			s.Kernels = append(s.Kernels, KernelSpec{
				WarpsPerSM: 24, Iterations: 1, Body: []InstSpec{{Op: "alu"}},
			})
		}, []string{"kernels[1].warpsPerSM", "first"}},
		{"second kernel launch warps", func(s *Spec) {
			s.Kernels = append(s.Kernels, KernelSpec{
				LaunchWarpsPerSM: 96, Iterations: 1, Body: []InstSpec{{Op: "alu"}},
			})
		}, []string{"kernels[1].launchWarpsPerSM"}},
		{"trace bad warp", func(s *Spec) {
			s.Kernels[0].Body, s.Kernels[0].Iterations = nil, 0
			s.Kernels[0].Trace = &TraceSpec{Records: []TraceRecord{{Warp: 64, PC: 1, Size: 128}}}
		}, []string{"trace.records[0].warp"}},
		{"trace bad size", func(s *Spec) {
			s.Kernels[0].Body, s.Kernels[0].Iterations = nil, 0
			s.Kernels[0].Trace = &TraceSpec{Records: []TraceRecord{{Warp: 0, PC: 1, Size: 0}}}
		}, []string{"trace.records[0].size"}},
		{"trace shared with stride", func(s *Spec) {
			s.Kernels[0].Body, s.Kernels[0].Iterations = nil, 0
			s.Kernels[0].Trace = &TraceSpec{
				Records: []TraceRecord{{Warp: 0, PC: 1, Size: 128}},
				Shared:  true, SMStrideBytes: 64,
			}
		}, []string{"trace.smStrideBytes", "shared"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimalSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted the mutated spec")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}

// TestDigestCanonical pins that digest ignores key order, whitespace and
// number formatting but tracks content.
func TestDigestCanonical(t *testing.T) {
	a := `{"specVersion":1,"name":"x","kernels":[{"iterations":2,"body":[{"op":"alu","repeat":3}]}]}`
	b := "{\n  \"kernels\": [ {\"body\": [ {\"repeat\": 3, \"op\": \"alu\"} ], \"iterations\": 2} ],\n  \"name\": \"x\",\n  \"specVersion\": 1\n}"
	c := `{"specVersion":1,"name":"x","kernels":[{"iterations":2,"body":[{"op":"alu","repeat":4}]}]}`
	sa, err := Parse([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Parse([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse([]byte(c))
	if err != nil {
		t.Fatal(err)
	}
	if sa.Digest() != sb.Digest() {
		t.Errorf("equivalent specs digest differently: %s vs %s", sa.Digest(), sb.Digest())
	}
	if sa.Digest() == sc.Digest() {
		t.Error("distinct specs share a digest")
	}
	if len(sa.Digest()) != 64 {
		t.Errorf("bad digest %q: want 64 hex digits", sa.Digest())
	}
	// Re-parsing the canonical form is a fixed point.
	again, err := Parse(sa.Canonical())
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if again.Digest() != sa.Digest() {
		t.Error("canonical form digest not stable")
	}
}

// TestFromWorkloadRoundTrip pins the exact decompile/compile round trip
// for every paper workload: Compile(FromWorkload(w)) == w field-for-field.
func TestFromWorkloadRoundTrip(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name(), func(t *testing.T) {
			s, err := FromWorkload(w)
			if err != nil {
				t.Fatalf("FromWorkload: %v", err)
			}
			// The spec survives serialisation.
			reparsed, err := Parse(s.Encode())
			if err != nil {
				t.Fatalf("Parse(Encode): %v", err)
			}
			if !reflect.DeepEqual(reparsed, s) {
				t.Fatal("spec changed across Encode/Parse")
			}
			got, err := reparsed.Compile()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("Compile(FromWorkload(w)) != w:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}

// TestSpecRoundTripProperty generates deterministic pseudo-random synthetic
// specs and pins spec -> compile -> decompile -> spec plus canonical-form
// stability.
func TestSpecRoundTripProperty(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	ops := []string{"alu", "load", "store", "shared"}
	cats := []string{"cache-sensitive", "cache-insensitive", "compute-intensive"}
	for trial := 0; trial < 50; trial++ {
		s := &Spec{
			SpecVersion: Version,
			Name:        fmt.Sprintf("prop-%d", trial),
			Category:    cats[next(len(cats))],
			Description: "generated",
		}
		nKernels := 1 + next(3)
		pc := uint32(0x100)
		for k := 0; k < nKernels; k++ {
			ks := KernelSpec{Iterations: 1 + next(8)}
			if k == 0 {
				ks.WarpsPerSM = 8 * (1 + next(6))
				ks.LaunchWarpsPerSM = ks.WarpsPerSM * (1 + next(2))
			}
			nInsts := 1 + next(5)
			for i := 0; i < nInsts; i++ {
				in := InstSpec{Op: ops[next(len(ops))]}
				switch in.Op {
				case "load", "store":
					in.PC = pc
					pc += 8
					in.Pattern = &PatternSpec{
						Base:       uint64(1+next(8)) << 32,
						SMStride:   int64(next(2)) << 26,
						WarpStride: int64(next(5)) * 512,
						IterStride: int64(next(5)) * 128,
						LaneStride: int64(1 + next(4)*4),
						WrapBytes:  int64(1+next(8)) << 12,
						WarpShare:  next(3),
						Random:     next(2) == 1,
						Seed:       uint64(next(1000)),
					}
				case "alu":
					in.Repeat = next(10)
					in.RepeatJitter = next(4)
					in.DependsOnMem = next(2) == 1
				}
				ks.Body = append(ks.Body, in)
			}
			s.Kernels = append(s.Kernels, ks)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: generated spec invalid: %v", trial, err)
		}
		w, err := s.Compile()
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		back, err := FromWorkload(w)
		if err != nil {
			t.Fatalf("trial %d: FromWorkload: %v", trial, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("trial %d: round trip changed the spec:\n got %+v\nwant %+v", trial, back, s)
		}
		// Serialisation round trip preserves the digest.
		re, err := Parse(s.Encode())
		if err != nil {
			t.Fatalf("trial %d: Parse(Encode): %v", trial, err)
		}
		if re.Digest() != s.Digest() {
			t.Fatalf("trial %d: digest unstable across serialisation", trial)
		}
	}
}

func TestVersionTag(t *testing.T) {
	if VersionTag() != fmt.Sprintf("workspec/s%d.c%d", Version, CompilerVersion) {
		t.Errorf("unexpected VersionTag %q", VersionTag())
	}
}
