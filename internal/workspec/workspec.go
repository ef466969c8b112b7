// Package workspec is the declarative workload-specification layer of the
// simulator: a versioned JSON schema that fully describes a workload — per
// static load the PC, inter-warp stride, locality, coalescing degree,
// working-set size and regularity knobs of kernel.Pattern; per kernel the
// instruction mix and warp geometry; and multi-kernel sequences with
// inter-kernel reuse — without recompiling anything. Specs compile to the
// same kernel.Kernel substrate the 15 hand-coded Table-IV models use, so a
// spec-built workload exercises exactly the same scheduler/prefetcher
// paths (examples/specs pins the 15 paper workloads bit-identical to
// internal/workloads).
//
// The package also replays recorded per-warp memory-access traces (the
// Accel-Sim-style trace-driven mode): a trace kernel compiles each static
// PC's recorded address stream into a kernel.AddrTable, so the timing
// model re-derives all timing while addresses come verbatim from the
// recording. Trace records travel inline in the spec, which keeps
// spec-driven requests to apresd self-contained and content-addressable.
//
// Canonicalisation: a parsed spec re-marshals with fixed field order and
// defaults omitted, so Digest is a whitespace/key-order/number-format
// independent content hash — the result store keys spec-driven runs on it.
package workspec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

const (
	// Version is the spec schema version this build reads and writes.
	Version = 1
	// CompilerVersion stamps the spec->kernel compilation semantics.
	// Bump it whenever Compile maps the same spec to a different kernel;
	// VersionTag folds it into result-store version stamps so stored
	// spec-driven results invalidate correctly.
	CompilerVersion = 1
)

// VersionTag identifies the schema and compiler versions; harness folds it
// into the result-store version stamp for spec-driven runs.
func VersionTag() string {
	return fmt.Sprintf("workspec/s%d.c%d", Version, CompilerVersion)
}

// Spec is one declarative workload: a named, versioned sequence of kernels.
type Spec struct {
	// SpecVersion must equal Version.
	SpecVersion int `json:"specVersion"`
	// Name is the workload identifier (letters, digits, ., _, -).
	Name string `json:"name"`
	// Category classifies the workload like the paper's Table IV:
	// "cache-sensitive", "cache-insensitive" or "compute-intensive"
	// (default). It only affects harness groupings, never simulation.
	Category string `json:"category,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Kernels is the kernel sequence: the first entry is the main kernel,
	// later entries run after it completes (inter-kernel reuse happens
	// through the caches when a later kernel reads an earlier kernel's
	// address ranges).
	Kernels []KernelSpec `json:"kernels"`
}

// KernelSpec is one kernel of a sequence: either a synthetic body of
// instructions or a recorded trace to replay (exactly one of Body/Trace).
type KernelSpec struct {
	// Name optionally labels the kernel within the sequence.
	Name string `json:"name,omitempty"`
	// WarpsPerSM is the kernel's concurrent warp occupancy per SM
	// (0 = the configuration's maximum). Only the first kernel of a
	// sequence may set it; the whole sequence shares warp slots.
	WarpsPerSM int `json:"warpsPerSM,omitempty"`
	// LaunchWarpsPerSM is the total logical warps launched per SM over
	// the sequence's lifetime (CTA refill); 0 means no refill. First
	// kernel only.
	LaunchWarpsPerSM int `json:"launchWarpsPerSM,omitempty"`
	// Iterations is how many times each warp executes Body (>= 1).
	// Ignored for trace kernels (the recording defines the length).
	Iterations int `json:"iterations,omitempty"`
	// Body is the synthetic per-warp instruction stream.
	Body []InstSpec `json:"body,omitempty"`
	// Trace is a recorded memory-access stream to replay instead of a
	// synthetic body.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// InstSpec is one static instruction.
type InstSpec struct {
	// Op is "alu", "load", "store" or "shared".
	Op string `json:"op"`
	// PC is the static instruction address; required (nonzero) for
	// load/store, forbidden otherwise.
	PC uint32 `json:"pc,omitempty"`
	// Repeat issues the instruction Repeat times back to back (0 = 1).
	Repeat int `json:"repeat,omitempty"`
	// RepeatJitter adds pseudo-random 0..RepeatJitter extra repeats per
	// (warp, iteration) — data-dependent work that desynchronises warps.
	RepeatJitter int `json:"repeatJitter,omitempty"`
	// DependsOnMem blocks issue until the warp's outstanding loads
	// return (the dependent first use of loaded data).
	DependsOnMem bool `json:"dependsOnMem,omitempty"`
	// Pattern generates load/store addresses; required for load/store,
	// forbidden otherwise.
	Pattern *PatternSpec `json:"pattern,omitempty"`
}

// PatternSpec mirrors kernel.Pattern: the per-static-load characterisation
// vocabulary of the paper's Table I as address-generator knobs.
type PatternSpec struct {
	// Base is the array base address.
	Base uint64 `json:"base,omitempty"`
	// SMStride separates per-SM footprints (0 = GPU-wide shared data).
	SMStride int64 `json:"smStride,omitempty"`
	// WarpStride is the inter-warp stride (Table I's Stride column).
	WarpStride int64 `json:"warpStride,omitempty"`
	// IterStride advances the access each loop iteration.
	IterStride int64 `json:"iterStride,omitempty"`
	// IterWrapBytes wraps only the iteration term (per-warp private
	// rescan regions, e.g. KMeans).
	IterWrapBytes int64 `json:"iterWrapBytes,omitempty"`
	// LaneStride spaces the 32 lanes — the coalescing degree (4 = fully
	// coalesced single line).
	LaneStride int64 `json:"laneStride,omitempty"`
	// WrapBytes confines the warp/iter offset — the working-set size.
	WrapBytes int64 `json:"wrapBytes,omitempty"`
	// WarpShare makes groups of consecutive warps share addresses — the
	// inter-warp-locality (#L/#R) knob.
	WarpShare int `json:"warpShare,omitempty"`
	// Random draws offsets pseudo-randomly from WrapBytes — the
	// regularity knob (irregular loads).
	Random bool `json:"random,omitempty"`
	// LaneRandom additionally randomises each lane (fully uncoalesced).
	LaneRandom bool `json:"laneRandom,omitempty"`
	// Seed perturbs the Random/LaneRandom hash.
	Seed uint64 `json:"seed,omitempty"`
}

// TraceSpec is a recorded per-warp memory-access stream. See ParseTraceFile
// for the on-disk CSV/JSONL formats; inline records keep specs
// self-contained for apresd.
type TraceSpec struct {
	// Records is the recorded access stream, replayed in Order.
	Records []TraceRecord `json:"records"`
	// Shared replays identical addresses on every SM (a GPU-wide shared
	// footprint). Default false: each SM replays a private copy offset by
	// SMStrideBytes, modelling per-SM recordings.
	Shared bool `json:"shared,omitempty"`
	// SMStrideBytes separates per-SM replay copies (default 1<<26).
	SMStrideBytes int64 `json:"smStrideBytes,omitempty"`
}

// TraceRecord is one recorded warp-level memory access.
type TraceRecord struct {
	// Order is the recording's cycle-order stamp; records replay in
	// ascending Order (ties keep input order).
	Order int64 `json:"order"`
	// Warp is the recorded warp ID (0..63).
	Warp int `json:"warp"`
	// PC is the static load address the access came from.
	PC uint32 `json:"pc"`
	// Addr is the access's lead byte address.
	Addr uint64 `json:"addr"`
	// Size is the access's span in bytes (the 32 lanes spread across it).
	Size int32 `json:"size"`
}

// maxTraceAddr bounds recorded addresses so per-SM offsets cannot overflow.
const maxTraceAddr = uint64(1) << 56

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Parse strictly decodes and validates a spec from JSON: unknown fields,
// trailing garbage and schema violations are errors. Syntax and type
// errors carry a line:column position; semantic errors carry the offending
// field's path.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workspec: %s", describeJSONError(data, err))
	}
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return nil, fmt.Errorf("workspec: %d:%d: trailing data after the spec object", line, col)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseFile is Parse over a file, prefixing errors with its path.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workspec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// describeJSONError renders a decode error with a line:column position
// where the standard library provides an offset.
func describeJSONError(data []byte, err error) string {
	switch e := err.(type) {
	case *json.SyntaxError:
		line, col := lineCol(data, e.Offset)
		return fmt.Sprintf("%d:%d: %v", line, col, e)
	case *json.UnmarshalTypeError:
		line, col := lineCol(data, e.Offset)
		field := e.Field
		if field == "" {
			field = "spec"
		}
		return fmt.Sprintf("%d:%d: field %s: cannot decode %s into %s", line, col, field, e.Value, e.Type)
	default:
		// "unknown field" errors already name the field.
		return err.Error()
	}
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// Validate checks the spec against the schema; errors name the offending
// field path (e.g. "kernels[0].body[3].pattern.warpShare").
func (s *Spec) Validate() error {
	if s.SpecVersion != Version {
		return fmt.Errorf("workspec: specVersion: got %d, this build supports %d", s.SpecVersion, Version)
	}
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("workspec: name: %q must match %s", s.Name, nameRE)
	}
	if s.Category != "" {
		if _, err := ParseCategory(s.Category); err != nil {
			return fmt.Errorf("workspec: category: %w", err)
		}
	}
	if len(s.Kernels) == 0 {
		return fmt.Errorf("workspec: kernels: a spec needs at least one kernel")
	}
	for i := range s.Kernels {
		k := &s.Kernels[i]
		path := fmt.Sprintf("kernels[%d]", i)
		if i > 0 {
			if k.WarpsPerSM != 0 && k.WarpsPerSM != s.Kernels[0].WarpsPerSM {
				return fmt.Errorf("workspec: %s.warpsPerSM: a kernel sequence shares warp slots; only the first kernel may set it (got %d, first has %d)",
					path, k.WarpsPerSM, s.Kernels[0].WarpsPerSM)
			}
			if k.LaunchWarpsPerSM != 0 {
				return fmt.Errorf("workspec: %s.launchWarpsPerSM: only the first kernel of a sequence may set it", path)
			}
		}
		if err := k.validate(path); err != nil {
			return err
		}
	}
	return nil
}

func (k *KernelSpec) validate(path string) error {
	if k.WarpsPerSM < 0 || k.WarpsPerSM > 64 {
		return fmt.Errorf("workspec: %s.warpsPerSM: must be in 0..64, got %d", path, k.WarpsPerSM)
	}
	if k.LaunchWarpsPerSM < 0 {
		return fmt.Errorf("workspec: %s.launchWarpsPerSM: must be >= 0, got %d", path, k.LaunchWarpsPerSM)
	}
	switch {
	case len(k.Body) > 0 && k.Trace != nil:
		return fmt.Errorf("workspec: %s: body and trace are mutually exclusive", path)
	case len(k.Body) == 0 && k.Trace == nil:
		return fmt.Errorf("workspec: %s: a kernel needs a body or a trace", path)
	case k.Trace != nil:
		if k.Iterations != 0 {
			return fmt.Errorf("workspec: %s.iterations: a trace kernel replays the recording's length; iterations must be omitted", path)
		}
		return k.Trace.validate(path + ".trace")
	}
	if k.Iterations < 1 {
		return fmt.Errorf("workspec: %s.iterations: must be >= 1, got %d", path, k.Iterations)
	}
	seen := map[uint32]bool{}
	for i := range k.Body {
		in := &k.Body[i]
		ipath := fmt.Sprintf("%s.body[%d]", path, i)
		if err := in.validate(ipath); err != nil {
			return err
		}
		if in.Op == "load" || in.Op == "store" {
			if seen[in.PC] {
				return fmt.Errorf("workspec: %s.pc: duplicate PC %#x within the kernel", ipath, in.PC)
			}
			seen[in.PC] = true
		}
	}
	return nil
}

func (in *InstSpec) validate(path string) error {
	switch in.Op {
	case "alu", "shared":
		if in.PC != 0 {
			return fmt.Errorf("workspec: %s.pc: %q instructions must not set a PC", path, in.Op)
		}
		if in.Pattern != nil {
			return fmt.Errorf("workspec: %s.pattern: %q instructions must not have a pattern", path, in.Op)
		}
	case "load", "store":
		if in.PC == 0 {
			return fmt.Errorf("workspec: %s.pc: %q needs a nonzero static PC", path, in.Op)
		}
		if in.Pattern == nil {
			return fmt.Errorf("workspec: %s.pattern: %q needs an address pattern", path, in.Op)
		}
		if err := in.Pattern.validate(path + ".pattern"); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("workspec: %s.op: missing opcode (want alu|load|store|shared)", path)
	default:
		return fmt.Errorf("workspec: %s.op: unknown opcode %q (want alu|load|store|shared)", path, in.Op)
	}
	if in.Repeat < 0 {
		return fmt.Errorf("workspec: %s.repeat: must be >= 0, got %d", path, in.Repeat)
	}
	if in.RepeatJitter < 0 {
		return fmt.Errorf("workspec: %s.repeatJitter: must be >= 0, got %d", path, in.RepeatJitter)
	}
	return nil
}

func (p *PatternSpec) validate(path string) error {
	switch {
	case p.Base >= uint64(1)<<62:
		return fmt.Errorf("workspec: %s.base: %#x exceeds the 62-bit address space", path, p.Base)
	case p.WrapBytes < 0:
		return fmt.Errorf("workspec: %s.wrapBytes: must be >= 0, got %d", path, p.WrapBytes)
	case p.IterWrapBytes < 0:
		return fmt.Errorf("workspec: %s.iterWrapBytes: must be >= 0, got %d", path, p.IterWrapBytes)
	case p.LaneStride < 0:
		return fmt.Errorf("workspec: %s.laneStride: must be >= 0, got %d", path, p.LaneStride)
	case p.WarpShare < 0:
		return fmt.Errorf("workspec: %s.warpShare: must be >= 0, got %d", path, p.WarpShare)
	case p.Random && p.WrapBytes == 0:
		return fmt.Errorf("workspec: %s.wrapBytes: random patterns need a positive working set", path)
	}
	return nil
}

func (t *TraceSpec) validate(path string) error {
	if len(t.Records) == 0 {
		return fmt.Errorf("workspec: %s.records: a trace needs at least one record", path)
	}
	if t.SMStrideBytes < 0 {
		return fmt.Errorf("workspec: %s.smStrideBytes: must be >= 0, got %d", path, t.SMStrideBytes)
	}
	if t.Shared && t.SMStrideBytes != 0 {
		return fmt.Errorf("workspec: %s.smStrideBytes: meaningless with shared=true", path)
	}
	for i := range t.Records {
		r := &t.Records[i]
		rpath := fmt.Sprintf("%s.records[%d]", path, i)
		switch {
		case r.Order < 0:
			return fmt.Errorf("workspec: %s.order: must be >= 0, got %d", rpath, r.Order)
		case r.Warp < 0 || r.Warp >= 64:
			return fmt.Errorf("workspec: %s.warp: must be in 0..63, got %d", rpath, r.Warp)
		case r.PC == 0:
			return fmt.Errorf("workspec: %s.pc: needs a nonzero static PC", rpath)
		case r.Addr >= maxTraceAddr:
			return fmt.Errorf("workspec: %s.addr: %#x exceeds the 56-bit trace address space", rpath, r.Addr)
		case r.Size < 1 || r.Size > 1<<16:
			return fmt.Errorf("workspec: %s.size: must be in 1..65536 bytes, got %d", rpath, r.Size)
		}
	}
	return nil
}

// Canonical returns the canonical JSON encoding of the spec: fixed field
// order, no insignificant whitespace, defaults omitted. Two specs that
// parse equal canonicalise identically regardless of the source's key
// order, whitespace or number formatting.
func (s *Spec) Canonical() []byte {
	// A validated spec of plain scalars cannot fail to marshal.
	b, _ := json.Marshal(s)
	return b
}

// Digest returns the SHA-256 content address of the canonical encoding.
// The result store keys spec-driven runs on it (plus config/scale/version,
// exactly like named workloads).
func (s *Spec) Digest() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// Encode renders the spec as indented JSON with a trailing newline, for
// writing spec files.
func (s *Spec) Encode() []byte {
	// A validated spec of plain scalars cannot fail to marshal.
	b, _ := json.MarshalIndent(s, "", "  ")
	return append(b, '\n')
}

// quoteList renders valid enum values for error messages.
func quoteList(vals []string) string {
	q := make([]string, len(vals))
	for i, v := range vals {
		q[i] = strconv.Quote(v)
	}
	return strings.Join(q, "|")
}
