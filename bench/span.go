package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
// An aggregate span stands for Calls short calls whose durations were
// accumulated (the engine layers: one per cell and layer); aggregates of one
// parent are laid end to end from the parent's start so that the self-time
// rule below applies to them unchanged.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Name      string `json:"name"`
	Req       int64  `json:"req,omitempty"`
	Label     string `json:"label,omitempty"`
	StartNS   int64  `json:"startNs"`
	DurNS     int64  `json:"durNs"`
	Calls     int64  `json:"calls,omitempty"`
	Aggregate bool   `json:"aggregate,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog
// records nothing, which is the untraced run.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(s span) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	s.ID = int64(len(l.spans) + 1)
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s.ID
}

// record adds a span that ran from start for dur.
func (l *spanLog) record(name string, parent, req int64, label string, start time.Time, dur time.Duration) int64 {
	if l == nil {
		return 0
	}
	return l.add(span{Parent: parent, Name: name, Req: req, Label: label,
		StartNS: int64(start.Sub(l.t0)), DurNS: int64(dur)})
}

// aggregates lays one aggregate child per (name, dur, calls) end to end under
// parent.
func (l *spanLog) aggregates(parent int64, label string, start time.Time, parts []span) {
	if l == nil {
		return
	}
	at := int64(start.Sub(l.t0))
	for _, p := range parts {
		p.Parent, p.Label, p.StartNS, p.Aggregate = parent, label, at, true
		l.add(p)
		at += p.DurNS
	}
}

func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are counted
// once).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.DurNS - covered(s.StartNS, s.StartNS+s.DurNS, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// [lo, hi).
func covered(lo, hi int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	at := lo
	for _, k := range kids {
		s, e := max(k.StartNS, at), min(k.StartNS+k.DurNS, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// traceFile is the layout of trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Host     host   `json:"host"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
