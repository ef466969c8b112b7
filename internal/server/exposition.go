// The one Prometheus text-format writer in the tree, without external
// dependencies. The worker daemon and the cluster coordinator both render
// their /metrics through it. It writes series in the order it is given them;
// callers iterate maps through SortedKeys, so output is deterministic and
// tests can assert exact bytes.
package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Histogram is a fixed-bucket histogram (a +Inf bucket is implicit). It is
// not synchronised: its owner's lock guards it.
type Histogram struct {
	buckets []float64
	counts  []int64 // one per bucket, non-cumulative
	sum     float64
	count   int64
}

// NewHistogram returns an empty histogram over the given upper bounds.
func NewHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]int64, len(buckets))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
}

// Exposition accumulates one scrape's text.
type Exposition struct {
	b      strings.Builder
	family string
}

// Family starts a metric family: its HELP and TYPE lines. The series that
// follow belong to it.
func (e *Exposition) Family(name, kind, help string) {
	e.family = name
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// series writes the current family's name, a suffix, and the label set
// given as alternating names and values.
func (e *Exposition) series(suffix string, labels []string) {
	e.b.WriteString(e.family)
	e.b.WriteString(suffix)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		e.b.WriteByte(sep)
		fmt.Fprintf(&e.b, "%s=%q", labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		e.b.WriteByte('}')
	}
}

// Sample writes one integer-valued series of the current family; labels
// alternate names and values.
func (e *Exposition) Sample(v int64, labels ...string) {
	e.series("", labels)
	fmt.Fprintf(&e.b, " %d\n", v)
}

// SampleFloat is Sample for a real-valued series.
func (e *Exposition) SampleFloat(v float64, labels ...string) {
	e.series("", labels)
	fmt.Fprintf(&e.b, " %g\n", v)
}

// Counter writes a family of one unlabelled counter.
func (e *Exposition) Counter(name, help string, v int64) {
	e.Family(name, "counter", help)
	e.Sample(v)
}

// Gauge writes a family of one unlabelled gauge.
func (e *Exposition) Gauge(name, help string, v int64) {
	e.Family(name, "gauge", help)
	e.Sample(v)
}

// Histogram writes h as series of the current family — cumulative buckets,
// sum and count — under the given labels.
func (e *Exposition) Histogram(h *Histogram, labels ...string) {
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

// WriteTo sends the exposition as an HTTP response.
func (e *Exposition) WriteTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(e.b.String())) // a failed write means the scraper went away
}

// SortedKeys returns m's keys in ascending order, for deterministic
// iteration at scrape time.
func SortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
