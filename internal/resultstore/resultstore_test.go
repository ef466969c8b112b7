package resultstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/stats"
)

func testEntry(workload string, cycles int64) Entry {
	cfg := config.Baseline()
	cfg.NumSMs = 2
	return Entry{
		Workload: workload,
		Scale:    0.1,
		Version:  "test",
		Result: gpu.Result{
			Config: cfg,
			Kernel: workload,
			Cycles: cycles,
			Total:  stats.Stats{Cycles: cycles, Instructions: 3 * cycles},
			PerSM:  []stats.Stats{{Instructions: cycles}, {Instructions: 2 * cycles}},
		},
	}
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	base := config.Baseline()
	k1 := Key("BFS", 1, false, base, "v1")
	if k1 != Key("BFS", 1, false, base, "v1") {
		t.Fatal("identical inputs hash differently")
	}
	if !ValidKey(k1) {
		t.Fatalf("key %q is not 64 hex chars", k1)
	}
	distinct := map[string]string{
		"workload":  Key("KM", 1, false, base, "v1"),
		"scale":     Key("BFS", 0.5, false, base, "v1"),
		"loadstats": Key("BFS", 1, true, base, "v1"),
		"version":   Key("BFS", 1, false, base, "v2"),
		"config":    Key("BFS", 1, false, base.WithScheduler(config.SchedLAWS), "v1"),
	}
	for what, k := range distinct {
		if k == k1 {
			t.Errorf("changing %s did not change the key", what)
		}
	}
}

// TestKeyPinned fixes Key's output for fixed inputs: the file layout is
// versioned by the file name, so changing it must leave every key — in the
// API, the contract goldens and existing stores — as it was. Only a change
// to what a key hashes (schema, config.Config's shape) may move these.
func TestKeyPinned(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{Key("BFS", 0.25, true, config.Baseline(), "v1"), "a413bc625068cdabcf5da688a73132335dbbb5021af22aa73bbde843edf7d5fb"},
		{Key("SP", 1, false, config.APRES(), "v1+spec"), "aeaad640b26c094b0b42e0e1146b1c35dd80ef77da4d874ae884884fe36df6b2"},
	} {
		if c.got != c.want {
			t.Errorf("Key = %s, want %s", c.got, c.want)
		}
	}
}

func TestValidKeyRejectsEscapes(t *testing.T) {
	for _, bad := range []string{
		"", "ab", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../" + strings.Repeat("a", 61), strings.Repeat("a", 63) + "/",
	} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
	if !ValidKey(strings.Repeat("0af", 20) + "beef") {
		t.Error("valid 64-hex key rejected")
	}
}

func TestPutGetRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("BFS", 1234)
	key := Key(e.Workload, e.Scale, false, e.Result.Config, e.Version)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("just-stored entry missing")
	}
	if got.Key != key || !reflect.DeepEqual(got.Result, e.Result) {
		t.Fatalf("round trip mutated the entry:\ngot  %+v\nwant %+v", got.Result, e.Result)
	}
	if got.CreatedAt.IsZero() {
		t.Fatal("CreatedAt not stamped")
	}

	// A second store over the same directory serves the entry from disk.
	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := s2.Get(key)
	if !ok {
		t.Fatal("reopened store lost the entry")
	}
	if !reflect.DeepEqual(got2.Result, e.Result) {
		t.Fatal("reopened entry differs")
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("reopen stats = %+v, want one disk hit", st)
	}
	// And the second Get is a memory hit.
	if _, ok := s2.Get(key); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after promotion = %+v, want one mem hit", st)
	}
}

func TestLRUEvictionKeepsDiskCopy(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	for i := range keys {
		e := testEntry("W", int64(100+i))
		e.Scale = float64(i + 1) // distinct keys
		keys[i] = Key(e.Workload, e.Scale, false, e.Result.Config, e.Version)
		if err := s.Put(keys[i], e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("memory front holds %d entries, want 2", s.Len())
	}
	// The evicted oldest entry must still load (from disk).
	got, ok := s.Get(keys[0])
	if !ok {
		t.Fatal("evicted entry lost from disk")
	}
	if got.Result.Cycles != 100 {
		t.Fatalf("evicted entry corrupted: cycles=%d", got.Result.Cycles)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}
}

func TestCorruptFilesAreMisses(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("BFS", 42)
	key := Key(e.Workload, e.Scale, false, e.Result.Config, e.Version)
	e.Key, e.CreatedAt = key, time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	if err := s.Put(key, e); err != nil {
		t.Fatal(err)
	}

	path := s.path(key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := bytes.IndexByte(good, '\n') + 1 // the header line, newline included
	header, blocks := good[:end], good[end:]
	if len(blocks) != 3*blockSize {
		t.Fatalf("entry for 2 SMs has %d counter bytes, want 3 blocks of %d", len(blocks), blockSize)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	reheader := func(mutate func(*Entry)) []byte { // a well-formed header line, changed by mutate
		e := e
		e.Result.Total, e.Result.PerSM = stats.Stats{}, nil
		mutate(&e)
		h, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		return append(h, '\n')
	}
	if !bytes.Equal(cat(reheader(func(*Entry) {}), blocks), good) {
		t.Fatal("an unchanged header does not rebuild the stored file")
	}
	flip := func(i int) []byte {
		b := bytes.Clone(good)
		b[i] ^= 0x20
		return b
	}
	var whole bytes.Buffer // the layout before counter blocks: one JSON document
	if err := json.NewEncoder(&whole).Encode(e); err != nil {
		t.Fatal(err)
	}

	// Every file that is not exactly what encodeEntry writes for this key
	// reads as a counted corrupt miss, never as a hit, an error or a panic.
	for name, data := range map[string][]byte{
		"garbage":             []byte("not json {"),
		"truncated header":    header[:end/2],
		"header only":         header,
		"header, no newline":  header[:end-1],
		"tail mid-block":      good[:len(good)-blockSize/2],
		"tail at a block":     good[:len(good)-blockSize],
		"trailing byte":       cat(good, []byte{0}),
		"trailing newline":    cat(good, []byte("\n")),
		"trailing block":      cat(good, blocks[:blockSize]),
		"blocks for 3 SMs":    cat(reheader(func(e *Entry) { e.Result.Config.NumSMs = 3 }), blocks),
		"blocks for 1 SM":     cat(reheader(func(e *Entry) { e.Result.Config.NumSMs = 1 }), blocks),
		"counters in header":  cat(reheader(func(e *Entry) { e.Result.Total.Cycles = 1 }), blocks),
		"wrong key":           cat(reheader(func(e *Entry) { e.Key = strings.Repeat("0", 64) }), blocks),
		"flipped brace":       flip(0),
		"flipped field name":  flip(bytes.Index(good, []byte(`"workload"`)) + 2),
		"flipped key byte":    flip(bytes.Index(good, []byte(key))),
		"indented header":     cat(bytes.Replace(header, []byte(`,"workload"`), []byte(`, "workload"`), 1), blocks),
		"whole-JSON entry":    whole.Bytes(),
		"whole-JSON, no tail": bytes.TrimSuffix(whole.Bytes(), []byte("\n")),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(key); ok {
			t.Errorf("%s: corrupted file served as a hit", name)
		}
		if got := st.Stats(); got.Corrupt != 1 || got.Misses != 1 {
			t.Errorf("%s: stats = %+v, want corrupt=1 misses=1", name, got)
		}
	}

	// The untouched bytes still load: every case above failed on its change.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("the original file no longer loads")
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("BFS", 7)
	key := Key(e.Workload, e.Scale, false, e.Result.Config, e.Version)
	if err := s.Put(key, e); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := testEntry("W", int64(i))
			e.Scale = float64(i%4 + 1)
			key := Key(e.Workload, e.Scale, false, e.Result.Config, e.Version)
			for j := 0; j < 20; j++ {
				if err := s.Put(key, e); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(key); !ok {
					t.Error("lost entry under concurrency")
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestConfigDigest(t *testing.T) {
	a := ConfigDigest(config.Baseline())
	if a != ConfigDigest(config.Baseline()) {
		t.Fatal("digest not deterministic")
	}
	if a == ConfigDigest(config.APRES()) {
		t.Fatal("different configs share a digest")
	}
	if len(a) != 16 {
		t.Fatalf("digest %q not 16 hex chars", a)
	}
}
