package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"apres/internal/cluster"
	"apres/internal/harness"
	"apres/internal/resultstore"
	"apres/internal/server"
	"apres/internal/twin"
)

// reference is the body WriteJSON promises: what a json.Encoder with
// SetIndent("", "  ") writes for v.
func reference(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWriteJSONMatchesEncodingJSON holds every kind of body either daemon
// sends, and the shapes an indenter can get wrong, to encoding/json's own
// indented output.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	r := harness.NewRunner(0.05, 2)
	out, err := r.Do(context.Background(), harness.Request{Workload: "SP", Config: "apres", LoadStats: true})
	if err != nil {
		t.Fatal(err)
	}
	nasty := "quote \" backslash \\ html <>& line sep \u2028\u2029 tab\t nul\x00 é 世界 \xff end\\"
	bodies := map[string]any{
		"simulate": server.SimulateResponse{
			Workload: "SP", Config: "apres", Key: "k", Cached: true, WallMS: 3, Version: "v",
			Result: out.Result, Engine: harness.EngineTwin, ErrorBound: &twin.Bounds{IPCRel: 0.125, L1HitAbs: 1e-9},
		},
		"sweep": server.SweepResponse{Cells: []server.SweepCell{
			{Workload: "SP", Config: "base", Cycles: 12, IPC: 0.5, L1HitRate: 1.0 / 3},
			{Workload: nasty, Config: "x", Error: nasty},
		}},
		"sweep without cells": server.SweepResponse{},
		"sweep, no cells":     server.SweepResponse{Cells: []server.SweepCell{}},
		"health":              server.HealthResponse{Status: "ok", Pool: server.HealthPool{Capacity: 2}},
		"store entry": resultstore.Entry{
			Key: "k", Workload: "SP", Scale: 0.05, CreatedAt: time.Unix(1700000000, 5).UTC(), Result: out.Result,
		},
		"cluster status": cluster.Status{
			Nodes: []cluster.NodeStatus{{URL: "http://a:1", Healthy: true, LastError: nasty}, {URL: "http://b:2"}},
		},
		"cluster status, no nodes": cluster.Status{},
		"coordinator health": map[string]any{
			"status": "no live nodes", "role": "coordinator", "version": "v", "liveNodes": 0, "nodes": 2,
		},
		"coordinator join": map[string]any{"joined": "http://a:1", "nodes": []string{"http://a:1", "http://b:2"}},
		"twin speedups": map[string]any{
			"workload": "KM", "variants": twin.SchedulerVariants,
			"speedups": map[string]float64{"gto": 1.25, "ccws": 4.97, "laws": 1},
		},
		"twin dram": map[string]any{"points": []harness.TwinDRAMPoint{{Interval: 1, IPC: 2.5, Speedup: 1}}},

		"string":                nasty,
		"empty string":          "",
		"null":                  nil,
		"true":                  true,
		"empty object":          map[string]any{},
		"empty array":           []int{},
		"nil slice":             []string(nil),
		"nested empties":        map[string]any{"a": map[string]any{}, "b": []any{}, "c": []any{map[string]any{}, []any{}, []any{[]any{}}}},
		"array of arrays":       [][]int{{1, 2}, {}, {3}},
		"string of punctuation": []string{"{", "}", "[", "]", ":", ",", "{}", "[]", `"`, `\"`, `\\`, `,"`},
		"punctuation in keys":   map[string]int{`a"b`: 1, `c\`: 2, "{": 3, ",": 4, ":": 5, "<k>": 6},
		"floats": []float64{
			0, -0.0, 1, -1, 0.1, 1.0 / 3, 1e20, 1e21, 1e-6, 1e-7, 123456789.125,
			math.MaxFloat64, math.SmallestNonzeroFloat64, float64(math.MaxInt64),
		},
		"float32":  []float32{0.1, 1e21, 16777216},
		"integers": []any{int64(math.MinInt64), uint64(math.MaxUint64), int8(-8)},
		"raw":      json.RawMessage(`{"a" : [ 1 , 2 ],  "b":{ }}`),
		"deep": func() any {
			var v any = "bottom"
			for i := 0; i < 70; i++ {
				v = map[string]any{"d": []any{v}}
			}
			return v
		}(),
	}
	for name, v := range bodies {
		rec := httptest.NewRecorder()
		server.WriteJSON(rec, http.StatusTeapot, v)
		want := reference(t, v)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s: body differs from encoding/json's\n--- got\n%s\n--- want\n%s", name, got, want)
		}
		if rec.Code != http.StatusTeapot {
			t.Errorf("%s: status %d, want %d", name, rec.Code, http.StatusTeapot)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", name, got)
		}
	}

	// Error bodies, through WriteError's formatting.
	rec := httptest.NewRecorder()
	server.WriteError(rec, http.StatusBadRequest, "unknown workload %q: %s", `N"O`, nasty)
	want := reference(t, map[string]string{"error": `unknown workload "N\"O": ` + nasty})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) || rec.Code != http.StatusBadRequest {
		t.Errorf("error body: status %d\n--- got\n%s\n--- want\n%s", rec.Code, got, want)
	}
}

// A value encoding/json rejects is a 500 with a JSON error body, not a 200
// with an empty one.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	server.WriteJSON(rec, http.StatusOK, map[string]float64{"ipc": math.NaN()})
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, body %q: want 500 with an error body", rec.Code, rec.Body.Bytes())
	}
}
