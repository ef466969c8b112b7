package server

// Spec-driven API coverage: inline workspec objects through /v1/simulate
// and /v1/sweep, including the acceptance property that an inline spec is
// simulated, stored under its canonical content hash, and served from the
// store on repeat — across differently-formatted but equivalent JSON
// bodies and across server restarts over the same store directory.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apres/internal/config"
	"apres/internal/harness"
	"apres/internal/resultstore"
	"apres/internal/version"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// specLabel is a spec's name in responses: its name and a 12-hex-digit
// prefix of its canonical digest.
func specLabel(s *workspec.Spec) string { return "spec:" + s.Name + ":" + s.Digest()[:12] }

func paperSpec(t *testing.T, name string) *workspec.Spec {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	s, err := workspec.FromWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimulateInlineSpecStoredAndServedOnRepeat(t *testing.T) {
	dir := t.TempDir()
	s, r := newTestServer(t, dir, 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := paperSpec(t, "SP")
	resp, data := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"spec": spec, "config": "base",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	first := decodeSimulate(t, data)
	if first.Cached {
		t.Error("first spec run reported cached")
	}
	if want := specLabel(spec); first.Workload != want {
		t.Errorf("response workload %q, want spec label %q", first.Workload, want)
	}
	if first.Key == "" {
		t.Fatal("spec run got no store key")
	}
	// The canonical spec key, spelt out: the spec's content identity, the
	// Runner's scale, the effective configuration, and the model version
	// with the workspec version folded in.
	eff := mustBase(t)
	eff.NumSMs = r.SMs
	specID := "spec:" + spec.Name + ":" + spec.Digest()
	wantKey := resultstore.Key(specID, r.Scale, false, eff, version.Stamp()+"+"+workspec.VersionTag())
	if first.Key != wantKey {
		t.Errorf("key %s, want canonical spec key %s", first.Key, wantKey)
	}

	// The stored entry is fetchable and carries the spec identity.
	resp2, data2 := getURL(t, ts.URL+"/v1/results/"+first.Key)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp2.StatusCode, data2)
	}
	var entry struct {
		Workload string `json:"workload"`
	}
	if err := json.Unmarshal(data2, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Workload != specID {
		t.Errorf("stored workload %q, want %q", entry.Workload, specID)
	}

	// Repeat with cosmetically different JSON (re-marshalled spec): cached.
	resp3, data3 := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"spec": mustReparse(t, spec), "config": "base",
	})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp3.StatusCode, data3)
	}
	second := decodeSimulate(t, data3)
	if !second.Cached {
		t.Error("repeat spec run not served from cache")
	}
	if second.Result.Cycles != first.Result.Cycles {
		t.Error("repeat spec run diverged")
	}

	// A fresh server over the same store answers from disk without
	// simulating.
	s2, r2 := newTestServer(t, dir, 0)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp4, data4 := postJSON(t, ts2.URL+"/v1/simulate", map[string]any{
		"spec": spec, "config": "base",
	})
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp4.StatusCode, data4)
	}
	third := decodeSimulate(t, data4)
	if !third.Cached {
		t.Error("restarted server did not recognise the stored spec result")
	}
	if third.Result.Cycles != first.Result.Cycles {
		t.Error("restarted server returned a different result")
	}
	if got := r2.Stats().Simulations; got != 0 {
		t.Errorf("restarted server simulated %d times, want 0", got)
	}
}

func mustBase(t *testing.T) config.Config {
	t.Helper()
	c, err := harness.NamedConfig("base")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestSimulateSpecValidation(t *testing.T) {
	s, _ := newTestServer(t, "", 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want string
	}{
		{"workload and spec", `{"workload":"SP","spec":{"specVersion":1,"name":"x","kernels":[{"iterations":1,"body":[{"op":"alu"}]}]}}`, "mutually exclusive"},
		{"neither", `{}`, "workload or spec"},
		{"bad spec version", `{"spec":{"specVersion":7,"name":"x","kernels":[{"iterations":1,"body":[{"op":"alu"}]}]}}`, "specVersion"},
		{"field-precise error", `{"spec":{"specVersion":1,"name":"x","kernels":[{"iterations":1,"body":[{"op":"load","pc":16}]}]}}`, "kernels[0].body[0].pattern"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, e.Error)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q missing %q", e.Error, tc.want)
			}
		})
	}
}

func TestSweepWithSpecs(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir(), 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := paperSpec(t, "KM")
	resp, data := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"workloads": []string{"SP"},
		"specs":     []*workspec.Spec{spec},
		"configs":   []string{"base", "apres"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out SweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 {
		t.Fatalf("want 4 cells, got %d", len(out.Cells))
	}
	// Workload-major order: named first, then specs.
	if out.Cells[0].Workload != "SP" || out.Cells[2].Workload != specLabel(spec) {
		t.Fatalf("cell order wrong: %q, %q", out.Cells[0].Workload, out.Cells[2].Workload)
	}
	for _, c := range out.Cells {
		if c.Error != "" {
			t.Errorf("cell %s/%s failed: %s", c.Workload, c.Config, c.Error)
		}
		if c.Cycles <= 0 {
			t.Errorf("cell %s/%s has no cycles", c.Workload, c.Config)
		}
		if c.Key == "" {
			t.Errorf("cell %s/%s has no store key", c.Workload, c.Config)
		}
	}
	// The spec cells are keyed differently from the named cells even for
	// a spec decompiled from a named workload.
	if out.Cells[0].Key == out.Cells[2].Key {
		t.Error("spec and named cells share a store key")
	}

	// An invalid spec fails the whole sweep up front with 400.
	respBad, dataBad := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"specs":   []map[string]any{{"specVersion": 1, "name": "bad name!", "kernels": []any{}}},
		"configs": []string{"base"},
	})
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec sweep: status %d: %s", respBad.StatusCode, dataBad)
	}
	if !strings.Contains(string(dataBad), "specs[0]") {
		t.Errorf("sweep error %s does not name the offending spec", dataBad)
	}
}

// TestSimulateTracedSpec exercises the traced path for an inline spec.
func TestSimulateTracedSpec(t *testing.T) {
	r := harness.NewRunner(0.05, 2)
	r.Jobs = 4
	s := New(Options{Runner: r, TraceDir: t.TempDir()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := paperSpec(t, "KM")
	resp, data := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"spec": spec, "config": "base", "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	out := decodeSimulate(t, data)
	if out.Trace == "" {
		t.Fatal("traced spec run returned no trace URL")
	}
	respT, dataT := getURL(t, ts.URL+out.Trace)
	if respT.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d", respT.StatusCode)
	}
	if len(dataT) == 0 {
		t.Fatal("empty trace artifact")
	}
}

func mustReparse(t *testing.T, s *workspec.Spec) *workspec.Spec {
	t.Helper()
	re, err := workspec.Parse(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return re
}
