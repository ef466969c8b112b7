// Package resultstore persists simulation results across process restarts.
// Results are content-addressed: the key is a hash over everything that
// determines the outcome of a run (workload name, iteration scale, the full
// configuration, whether load characterisation was collected, the simulator
// version stamp, and the store schema). Identical runs therefore share one
// entry no matter which process — CLI or daemon — produced it, and any
// model change silently invalidates the whole store because new builds hash
// to new keys.
//
// The store is a directory of entry files (sharded by key prefix) behind an
// in-memory LRU front. An entry file is one JSON header line — the Entry
// with its counters zeroed, so `head -1` shows where a result came from —
// followed by the counters themselves as fixed-width binary stats.Stats
// blocks (see encodeEntry). Writes go to a temp file in the same directory
// and are renamed into place, so a crash never leaves a half-written entry
// under a valid key; unreadable or mismatching files are treated as misses,
// never as errors.
package resultstore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"apres/internal/config"
	"apres/internal/gpu"
)

// schema versions what an entry means. Bump it when Entry or gpu.Result
// change shape incompatibly: old files then hash under keys nobody computes
// any more and are simply never read. (The file layout is versioned by the
// file name instead, so a new layout leaves every key as it was.)
//
// Schema 2 added engine tagging (Engine + ErrorBound*): entries written by
// the analytical twin share keys with exact runs, so pre-engine stores must
// not be read back as if every entry were cycle-accurate.
const schema = 2

// Entry is one persisted simulation result plus the metadata needed to
// audit where it came from.
type Entry struct {
	// Key is the entry's own content address (self-check on load).
	Key string `json:"key"`
	// Workload is the benchmark abbreviation (e.g. "BFS").
	Workload string `json:"workload"`
	// Scale is the workload iteration scale the run used.
	Scale float64 `json:"scale"`
	// LoadStats records whether per-PC characterisation was collected.
	LoadStats bool `json:"loadStats,omitempty"`
	// Version is the simulator version stamp that produced the result.
	Version string `json:"version"`
	// Engine records which engine produced the result: "" or
	// "cycle-accurate" for exact simulation, "twin" for the analytical
	// model. Twin entries live under the same key as the exact run they
	// approximate; readers wanting exactness must check this tag (an
	// escalated exact run later overwrites the twin entry in place).
	Engine string `json:"engine,omitempty"`
	// ErrorBoundIPC / ErrorBoundL1 carry a twin entry's calibrated error
	// bound (relative IPC, absolute L1 hit rate). Zero for exact entries.
	ErrorBoundIPC float64 `json:"errorBoundIPC,omitempty"`
	ErrorBoundL1  float64 `json:"errorBoundL1,omitempty"`
	// CreatedAt is when the entry was first stored.
	CreatedAt time.Time `json:"createdAt"`
	// Result is the full simulation outcome. Only exported fields survive
	// the JSON round trip (LoadStat's internal bookkeeping does not, but
	// every consumer reads exported counters only).
	Result gpu.Result `json:"result"`
}

// Exact reports whether the entry holds a cycle-accurate result (untagged
// entries predate engine selection and were always produced by the
// simulator, so they count as exact).
func (e *Entry) Exact() bool { return e.Engine == "" || e.Engine == "cycle-accurate" }

// keyMaterial is the canonical serialisation hashed into a key. It is a
// struct (not a map) so field order — and therefore the hash — is fixed.
type keyMaterial struct {
	Schema    int
	Version   string
	Workload  string
	Scale     float64
	LoadStats bool
	Config    config.Config
}

// Key returns the content address of one simulation run.
func Key(workload string, scale float64, loadStats bool, cfg config.Config, version string) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	// Encoding a struct of scalars cannot fail.
	_ = enc.Encode(keyMaterial{
		Schema:    schema,
		Version:   version,
		Workload:  workload,
		Scale:     scale,
		LoadStats: loadStats,
		Config:    cfg,
	})
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// ConfigDigest returns a short hash of a configuration alone, for labelling
// ad-hoc (non-named) configs in caches and metrics.
func ConfigDigest(cfg config.Config) string {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(cfg)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

// Stats counts what a Store did, for metrics and tests.
type Stats struct {
	// MemHits answered from the in-memory LRU front.
	MemHits int64
	// DiskHits answered by reading (and promoting) an on-disk entry.
	DiskHits int64
	// Misses found neither in memory nor on disk.
	Misses int64
	// Puts stored a new entry.
	Puts int64
	// Corrupt counts on-disk entries that failed to load (a malformed
	// header or counter blocks, key mismatch) and were treated as misses.
	Corrupt int64
}

// Store is a persistent content-addressed result cache with an in-memory
// LRU front. All methods are safe for concurrent use.
type Store struct {
	dir    string
	maxMem int

	mu    sync.Mutex
	lru   *list.List // of *Entry, front = most recently used
	byKey map[string]*list.Element
	stats Stats
}

// Open creates (if needed) and opens a store rooted at dir. maxMem bounds
// the in-memory LRU front in entries; <= 0 selects a default of 256.
// Eviction from memory never deletes the on-disk copy.
func Open(dir string, maxMem int) (*Store, error) {
	if maxMem <= 0 {
		maxMem = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{
		dir:    dir,
		maxMem: maxMem,
		lru:    list.New(),
		byKey:  make(map[string]*list.Element),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of entries resident in memory (not on disk).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// ValidKey reports whether key has the shape this store produces: 64
// lowercase hex characters. Everything else — including anything that could
// escape the store directory — is rejected up front.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path maps a key to its on-disk location, sharded by the first two hex
// characters so no single directory grows unbounded. The extension names
// the file layout: files of an earlier layout are never opened.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".entry")
}

// Get returns the entry stored under key, consulting memory first and then
// disk. A disk hit is promoted into the LRU front.
func (s *Store) Get(key string) (Entry, bool) {
	if !ValidKey(key) {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.MemHits++
		e := *el.Value.(*Entry)
		s.mu.Unlock()
		return e, true
	}
	s.mu.Unlock()

	// Disk read outside the lock: loads can be slow and concurrent Gets
	// for different keys should not serialise on IO.
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	e, err := decodeEntry(data)
	if err != nil || e.Key != key {
		// Torn, truncated or foreign file: treat as a miss, never an error.
		s.mu.Lock()
		s.stats.Corrupt++
		s.stats.Misses++
		s.mu.Unlock()
		return Entry{}, false
	}

	s.mu.Lock()
	s.stats.DiskHits++
	if el, ok := s.byKey[key]; ok {
		// Lost a race with another Get or a Put: keep the resident copy.
		s.lru.MoveToFront(el)
		e = *el.Value.(*Entry)
	} else {
		s.insertLocked(&e)
	}
	s.mu.Unlock()
	return e, true
}

// Put stores entry under key in memory and on disk. The disk write is
// atomic (temp file + rename); a failure to persist leaves the in-memory
// copy in place and is returned so callers can decide whether to care.
func (s *Store) Put(key string, e Entry) error {
	if !ValidKey(key) {
		return fmt.Errorf("resultstore: invalid key %q", key)
	}
	e.Key = key
	if e.CreatedAt.IsZero() {
		e.CreatedAt = time.Now().UTC()
	}

	s.mu.Lock()
	s.stats.Puts++
	if el, ok := s.byKey[key]; ok {
		el.Value = &e
		s.lru.MoveToFront(el)
	} else {
		s.insertLocked(&e)
	}
	s.mu.Unlock()

	return s.writeFile(key, &e)
}

// insertLocked adds e to the LRU front and evicts the memory-only tail past
// maxMem. Caller holds s.mu.
func (s *Store) insertLocked(e *Entry) {
	s.byKey[e.Key] = s.lru.PushFront(e)
	for s.lru.Len() > s.maxMem {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.byKey, tail.Value.(*Entry).Key)
	}
}

// writeFile persists e with write-temp-then-rename atomicity.
func (s *Store) writeFile(key string, e *Entry) error {
	data, err := encodeEntry(e)
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", key[:8], err)
	}
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-"+key[:8]+"-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}
