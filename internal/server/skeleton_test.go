package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apres/internal/harness"
)

// FuzzIndent holds appendIndent to json.Indent on arbitrary valid JSON in
// compact form — the only input WriteJSON ever gives it.
func FuzzIndent(f *testing.F) {
	for _, seed := range []string{
		`null`, `0`, `-1.5e+300`, `""`, `"a\"b\\"`, `"\\\\\""`, `" <>&"`, `{}`, `[]`, `[[]]`, `[{}]`,
		`{"a":{}}`, `{"a":[],"b":{"c":[{},[],[[]]]}}`, `[1,2,[3,[4,[5]]]]`,
		`{"{":"}","[":"]",",":":","\"":"\\"}`, `{"a":"x,y:z{}[]"}`, "{\"a\":1}\n", "[1]\n",
		` { "a" : [ 1 , 2 ] } `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var compact bytes.Buffer
		if json.Compact(&compact, data) != nil {
			t.Skip("not JSON")
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendIndent(%q)\n got %q\nwant %q", compact.Bytes(), got, want.Bytes())
		}
	})
}

func TestDecodeBodyRejectsTrailingData(t *testing.T) {
	cases := []struct {
		body string
		ok   bool
	}{
		{`{"workload":"SP"}`, true},
		{"{\"workload\":\"SP\"}\n", true},
		{" \t\r\n{\"workload\":\"SP\"} \t\r\n\n", true},
		{`{"workload":"SP"} xyz`, false},
		{`{"workload":"SP"}{"workload":"KM"}`, false},
		{`{"workload":"SP"} }`, false},
		{`{"workload":"SP"},`, false},
		{`{"workload":"SP"} 1`, false},
		{`{"workload":"SP"}` + "\n" + `"x"`, false},
		{`{"workload":"SP"} null`, false},
	}
	for _, c := range cases {
		var req SimulateRequest
		rec := httptest.NewRecorder()
		ok := DecodeBody(rec, httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(c.body)), &req)
		switch {
		case ok != c.ok:
			t.Errorf("DecodeBody(%q) = %v, want %v", c.body, ok, c.ok)
		case ok && (req.Workload != "SP" || rec.Body.Len() > 0):
			t.Errorf("DecodeBody(%q) decoded %+v and wrote %q", c.body, req, rec.Body)
		case !ok && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body")):
			t.Errorf("DecodeBody(%q) answered %d %q, want the 400 error body", c.body, rec.Code, rec.Body)
		}
	}
	// End to end: the trailing garbage must not run.
	s, r := newTestServer(t, "", 0)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(`{"workload":"SP"} xyz`)))
	if rec.Code != http.StatusBadRequest || r.Stats().Simulations != 0 {
		t.Errorf("trailing garbage: status %d, %d simulations; want 400 and none", rec.Code, r.Stats().Simulations)
	}
}

// discard is a ResponseWriter that keeps nothing, so BenchmarkWriteJSON
// times the encoder and not a recorder.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) WriteHeader(int)             {}
func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkWriteJSON encodes a full 15-SM simulate response (the memo-hit
// body, about 15 KB) through WriteJSON and through the json.Encoder with
// SetIndent that WriteJSON replaced.
func BenchmarkWriteJSON(b *testing.B) {
	r := harness.NewRunner(0.05, 0)
	out, err := r.Do(context.Background(), harness.Request{Workload: "SP", Config: "apres"})
	if err != nil {
		b.Fatal(err)
	}
	resp := SimulateResponse{Workload: "SP", Config: "apres", Cached: true, Version: "v", Result: out.Result, Engine: out.Engine}
	w := discard{h: http.Header{}}
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			WriteJSON(w, http.StatusOK, resp)
		}
	})
	b.Run("SetIndent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(resp)
		}
	})
}
