package resultstore

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/stats"
	"apres/internal/twin"
	"apres/internal/workloads"
)

// codecEntries returns real results in every shape the store holds: exact
// runs with and without per-PC load stats, with a timeline and stopped at
// MaxCycles, and twin predictions with nil PerSM and error bounds set. Keys
// and CreatedAt are filled in, as Put would.
func codecEntries(tb testing.TB) map[string]Entry {
	tb.Helper()
	cfg := config.Baseline()
	cfg.NumSMs = 2
	bounded := cfg.WithScheduler(config.SchedGTO)
	bounded.MaxCycles = 3000
	exact := func(app string, cfg config.Config, opts ...gpu.Option) gpu.Result {
		w, ok := workloads.ByName(app)
		if !ok {
			tb.Fatalf("no workload %s", app)
		}
		res, err := gpu.Simulate(cfg, w.Kernel.Scaled(0.02), opts...)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	model := twin.New()
	predict := func(app string) (gpu.Result, twin.Bounds) {
		w, _ := workloads.ByName(app)
		p, err := model.Predict(app, w, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return p.Result(), p.Bounds
	}
	km, kmBounds := predict("KM")
	bfs, bfsBounds := predict("BFS")
	bfs.Timeline = []gpu.TimelinePoint{} // "[]", not null, on the way back
	// No run records a timeline any more, but entries written while runs
	// did still hold one; the codec must keep carrying it.
	withTimeline := exact("KM", cfg, gpu.WithLoadStats())
	withTimeline.Timeline = []gpu.TimelinePoint{{Cycle: 400, Instructions: 5120}, {Cycle: 800, Instructions: 11264}}

	utc := time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC)
	zoned := time.Date(2026, 3, 14, 15, 9, 26, 0, time.FixedZone("", -5*3600))
	entries := map[string]Entry{
		"exact":          {Engine: twin.EngineCycleAccurate, CreatedAt: utc, Result: exact("SP", cfg)},
		"exact-untagged": {CreatedAt: zoned, Result: exact("NW", cfg)},
		"loadstats-timeline": {LoadStats: true, Engine: twin.EngineCycleAccurate, CreatedAt: utc,
			Result: withTimeline},
		"maxcycles": {Engine: twin.EngineCycleAccurate, CreatedAt: utc, Result: exact("BFS", bounded)},
		"twin": {Engine: twin.EngineTwin, ErrorBoundIPC: kmBounds.IPCRel, ErrorBoundL1: kmBounds.L1HitAbs,
			CreatedAt: utc, Result: km},
		"twin-empty-timeline": {Engine: twin.EngineTwin, ErrorBoundIPC: bfsBounds.IPCRel, ErrorBoundL1: bfsBounds.L1HitAbs,
			CreatedAt: zoned, Result: bfs},
	}
	for name, e := range entries {
		e.Workload, e.Scale, e.Version = e.Result.Kernel, 0.02, "test"
		e.Key = Key(name, e.Scale, e.LoadStats, e.Result.Config, e.Version)
		entries[name] = e
	}
	if !entries["maxcycles"].Result.HitMaxCycles || len(entries["loadstats-timeline"].Result.LoadStats) == 0 ||
		len(entries["loadstats-timeline"].Result.Timeline) == 0 || entries["twin"].Result.PerSM != nil {
		tb.Fatal("codecEntries no longer covers the shapes it names")
	}
	return entries
}

// jsonRoundTrip is what a disk Get returned while entries were whole JSON
// documents, and what it must keep returning.
func jsonRoundTrip(tb testing.TB, e Entry) Entry {
	tb.Helper()
	data, err := json.Marshal(e)
	if err != nil {
		tb.Fatal(err)
	}
	var out Entry
	if err := json.Unmarshal(data, &out); err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestEntryCodecMatchesJSON(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	entries := codecEntries(t)
	for _, e := range entries {
		if err := s.Put(e.Key, e); err != nil {
			t.Fatal(err)
		}
	}
	for name, e := range entries {
		fresh, err := Open(dir, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := fresh.Get(e.Key)
		if !ok {
			t.Fatalf("%s: not found on disk", name)
		}
		if st := fresh.Stats(); st.DiskHits != 1 {
			t.Fatalf("%s: stats = %+v, want one disk hit", name, st)
		}
		if want := jsonRoundTrip(t, e); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: disk Get differs from the JSON round trip:\ngot  %+v\nwant %+v", name, got, want)
		}
		if !got.CreatedAt.Equal(e.CreatedAt) || got.CreatedAt.Format(time.RFC3339Nano) != e.CreatedAt.Format(time.RFC3339Nano) {
			t.Errorf("%s: CreatedAt %v, stored %v", name, got.CreatedAt, e.CreatedAt)
		}
		if (got.Result.PerSM == nil) != (e.Result.PerSM == nil) || (got.Result.Timeline == nil) != (e.Result.Timeline == nil) {
			t.Errorf("%s: null/[] not preserved: PerSM nil %v (stored %v), Timeline nil %v (stored %v)", name,
				got.Result.PerSM == nil, e.Result.PerSM == nil, got.Result.Timeline == nil, e.Result.Timeline == nil)
		}
	}
}

// TestPutRefusesUnencodablePerSM: a PerSM that is neither nil nor one block
// per configured SM has no file form (it would read back as something
// else), so Put keeps it in memory and reports the failure to persist.
func TestPutRefusesUnencodablePerSM(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := codecEntries(t)["exact"]
	for name, perSM := range map[string][]stats.Stats{"empty": {}, "short": e.Result.PerSM[:1]} {
		bad := e
		bad.Result.PerSM = perSM
		if err := s.Put(e.Key, bad); err == nil {
			t.Errorf("%s PerSM: Put succeeded", name)
		}
		if _, ok := s.Get(e.Key); !ok {
			t.Errorf("%s PerSM: the in-memory copy was dropped", name)
		}
	}
	fresh, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(e.Key); ok {
		t.Fatal("an unencodable entry reached the disk")
	}
}

// FuzzEntryCodec: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to the same bytes — the decoder accepts exactly the
// encoder's output, so no file can load as something it does not say.
func FuzzEntryCodec(f *testing.F) {
	for _, e := range codecEntries(f) {
		data, err := encodeEntry(&e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("{}\n"))
	f.Add([]byte("null\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err != nil {
			return
		}
		again, err := encodeEntry(&e)
		if err != nil {
			t.Fatalf("a decoded entry does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding changed the bytes:\nin  %q\nout %q", data, again)
		}
	})
}

// benchEntry is a full-size exact entry: 15 SMs, so 16 counter blocks.
func benchEntry(b *testing.B) Entry {
	w, _ := workloads.ByName("SP")
	res, err := gpu.Simulate(config.Baseline(), w.Kernel.Scaled(0.02))
	if err != nil {
		b.Fatal(err)
	}
	e := Entry{Workload: "SP", Scale: 0.02, Version: "bench", Engine: twin.EngineCycleAccurate, Result: res}
	e.Key = Key(e.Workload, e.Scale, false, res.Config, e.Version)
	return e
}

// BenchmarkStoreGetDisk is a store hit in a process that has not read the
// entry yet: a fresh Open, so Get reads and decodes the file.
func BenchmarkStoreGetDisk(b *testing.B) {
	dir := b.TempDir()
	e := benchEntry(b)
	s, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(e.Key, e); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(s.path(e.Key))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := Open(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := fresh.Get(e.Key); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStorePut(b *testing.B) {
	e := benchEntry(b)
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(e.Key, e); err != nil {
			b.Fatal(err)
		}
	}
}
