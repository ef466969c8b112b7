package server

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"apres/internal/harness"
)

// fmtExposition is the writer Exposition replaced — fmt.Fprintf per series,
// %q label values, %g floats — kept as the oracle for its bytes.
type fmtExposition struct {
	b      strings.Builder
	family string
}

func (e *fmtExposition) Family(name, kind, help string) {
	e.family = name
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

func (e *fmtExposition) series(suffix string, labels []string) {
	e.b.WriteString(e.family + suffix)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&e.b, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		e.b.WriteByte('}')
	}
}

func (e *fmtExposition) Histogram(h *Histogram, labels ...string) {
	le := append(append([]string(nil), labels...), "le", "")
	var cum int64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		le[len(le)-1] = fmt.Sprintf("%g", ub)
		e.series("_bucket", le)
		fmt.Fprintf(&e.b, " %d\n", cum)
	}
	le[len(le)-1] = "+Inf"
	e.series("_bucket", le)
	fmt.Fprintf(&e.b, " %d\n", h.count)
	e.series("_sum", labels)
	fmt.Fprintf(&e.b, " %g\n", h.sum)
	e.series("_count", labels)
	fmt.Fprintf(&e.b, " %d\n", h.count)
}

func TestExpositionMatchesFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, 0.001, 0.005, 0.1, 1.0 / 3, 120, 1e20, 1e21, 1e-4, 1e-5, 123456.789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	h := NewHistogram(floats[:13])
	for _, v := range floats[:16] {
		h.Observe(v)
	}
	labelSets := [][]string{
		nil,
		{"config", "cfg:0123abcd"},
		{"endpoint", "simulate", "code", "200"},
		{"node", "http://a:1/x?y=\"z\"", "odd", "back\\slash\nnewline\ttab é \x00 \xff  "},
	}
	var got Exposition
	var want fmtExposition
	got.Family("apresd_test_total", "counter", "Help with \"quotes\" and 100% of a \\.")
	want.Family("apresd_test_total", "counter", "Help with \"quotes\" and 100% of a \\.")
	for _, labels := range labelSets {
		for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
			got.Sample(v, labels...)
			want.series("", labels)
			fmt.Fprintf(&want.b, " %d\n", v)
		}
		for _, v := range floats {
			got.SampleFloat(v, labels...)
			want.series("", labels)
			fmt.Fprintf(&want.b, " %g\n", v)
		}
		got.Histogram(h, labels...)
		want.Histogram(h, labels...)
	}
	got.Gauge("apresd_gauge", "A gauge.", 7)
	want.Family("apresd_gauge", "gauge", "A gauge.")
	want.series("", nil)
	fmt.Fprintf(&want.b, " %d\n", 7)
	if g, w := string(got.b), want.b.String(); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, want %d", len(gl), len(wl))
	}
}

// BenchmarkExposition renders a worker's /metrics after traffic under twelve
// configuration labels: 168 histogram series plus the fixed families.
func BenchmarkExposition(b *testing.B) {
	s, _, _ := warmHandler(b)
	for i := 0; i < 12; i++ {
		for j := 0; j < 5; j++ {
			s.metrics.inflight.Add(1)
			s.metrics.simEnd(fmt.Sprintf("cfg:%08x", i), float64(j)*0.01, harness.Outcome{Engine: harness.EngineCycleAccurate}, nil)
		}
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		b.SetBytes(int64(rec.Body.Len()))
	}
}
