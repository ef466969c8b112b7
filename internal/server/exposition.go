// The one Prometheus text-format writer in the tree, without external
// dependencies. The worker daemon and the cluster coordinator both render
// their /metrics through it. It writes series in the order it is given them;
// callers iterate maps through SortedKeys, so output is deterministic and
// tests can assert exact bytes.
package server

import (
	"net/http"
	"sort"
	"strconv"
)

// Histogram is a fixed-bucket histogram (a +Inf bucket is implicit). It is
// not synchronised: its owner's lock guards it.
type Histogram struct {
	buckets []float64
	// les are the buckets formatted as le label values, once.
	les    [][]byte
	counts []int64 // one per bucket, non-cumulative
	sum    float64
	count  int64
}

// NewHistogram returns an empty histogram over the given upper bounds.
func NewHistogram(buckets []float64) *Histogram {
	h := &Histogram{buckets: buckets, les: make([][]byte, len(buckets)), counts: make([]int64, len(buckets))}
	for i, ub := range buckets {
		h.les[i] = appendFloat(nil, ub)
	}
	return h
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

// Exposition accumulates one scrape's text in a single buffer, numbers and
// quoted label values appended in place.
type Exposition struct {
	b      []byte
	family string
}

// Family starts a metric family: its HELP and TYPE lines. The series that
// follow belong to it.
func (e *Exposition) Family(name, kind, help string) {
	e.family = name
	e.b = append(e.b, "# HELP "...)
	e.b = append(e.b, name...)
	e.b = append(e.b, ' ')
	e.b = append(e.b, help...)
	e.b = append(e.b, "\n# TYPE "...)
	e.b = append(e.b, name...)
	e.b = append(e.b, ' ')
	e.b = append(e.b, kind...)
	e.b = append(e.b, '\n')
}

// series writes the current family's name, a suffix, and the label set
// given as alternating names and values, up to the space before the value.
// A non-empty le becomes a trailing le label, written as it is.
func (e *Exposition) series(suffix string, labels []string, le []byte) {
	e.b = append(e.b, e.family...)
	e.b = append(e.b, suffix...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		e.b = append(e.b, sep)
		e.b = append(e.b, labels[i]...)
		e.b = append(e.b, '=')
		e.b = strconv.AppendQuote(e.b, labels[i+1])
		sep = ','
	}
	if len(le) > 0 {
		e.b = append(e.b, sep)
		e.b = append(e.b, `le="`...)
		e.b = append(e.b, le...)
		e.b = append(e.b, '"')
		sep = ','
	}
	if sep == ',' {
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ' ')
}

// value ends a series line with an integer value.
func (e *Exposition) value(v int64) {
	e.b = strconv.AppendInt(e.b, v, 10)
	e.b = append(e.b, '\n')
}

// valueFloat ends a series line with a real value.
func (e *Exposition) valueFloat(v float64) {
	e.b = appendFloat(e.b, v)
	e.b = append(e.b, '\n')
}

// appendFloat formats v as fmt's %g does.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Sample writes one integer-valued series of the current family; labels
// alternate names and values.
func (e *Exposition) Sample(v int64, labels ...string) {
	e.series("", labels, nil)
	e.value(v)
}

// SampleFloat is Sample for a real-valued series.
func (e *Exposition) SampleFloat(v float64, labels ...string) {
	e.series("", labels, nil)
	e.valueFloat(v)
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
	var cum int64
	for i, le := range h.les {
		cum += h.counts[i]
		e.series("_bucket", labels, le)
		e.value(cum)
	}
	e.series("_bucket", labels, []byte("+Inf"))
	e.value(h.count)
	e.series("_sum", labels, nil)
	e.valueFloat(h.sum)
	e.series("_count", labels, nil)
	e.value(h.count)
}

// WriteTo sends the exposition as an HTTP response.
func (e *Exposition) WriteTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(e.b) // a failed write means the scraper went away
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
