// Package workloads defines synthetic models of the 15 benchmarks the APRES
// paper evaluates (Table IV), parameterised from the paper's own per-load
// characterisation (Table I): each application's static loads reproduce the
// published inter-warp stride, locality (#L/#R), coalescing behaviour and
// working-set pressure, and the compute/memory instruction mix follows the
// paper's compute- vs memory-intensive classification. The static load PCs
// are the ones Table I reports.
//
// The CUDA/Rodinia/Parboil binaries themselves are not reproducible without
// GPGPU-sim, so these models are the substitution documented in DESIGN.md:
// they exercise the same scheduler/prefetcher code paths through the same
// per-load statistics.
package workloads

import (
	"fmt"

	"apres/internal/arch"
	"apres/internal/kernel"
)

// Category classifies applications as the paper does (Table IV).
type Category int

const (
	// CacheSensitive applications speed up with more effective cache.
	CacheSensitive Category = iota
	// CacheInsensitive applications are memory-intensive but limited by
	// bandwidth/latency rather than cache capacity.
	CacheInsensitive
	// ComputeIntensive applications are bounded by ALU throughput.
	ComputeIntensive
)

func (c Category) String() string {
	switch c {
	case CacheSensitive:
		return "cache-sensitive"
	case CacheInsensitive:
		return "cache-insensitive"
	case ComputeIntensive:
		return "compute-intensive"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Workload couples a kernel model with its paper metadata.
type Workload struct {
	Kernel      kernel.Kernel
	Category    Category
	Description string
}

// Name returns the benchmark abbreviation.
func (w Workload) Name() string { return w.Kernel.Name }

// MemoryIntensive reports whether the workload belongs to the paper's
// memory-intensive group (cache-sensitive + cache-insensitive).
func (w Workload) MemoryIntensive() bool { return w.Category != ComputeIntensive }

// Address-space layout: each static load reads its own array. Arrays are
// spaced far apart, and per-SM data is separated by smSpan so SMs do not
// share L2 lines unless the workload models genuinely shared data.
const (
	arraySpan = int64(1) << 32
	smSpan    = int64(1) << 26
	// allWarps makes a pattern warp-invariant (any value >= WarpsPerSM).
	allWarps = 64
)

func base(i int) int64 { return int64(i+1) * arraySpan }

// alu returns an ALU burst whose first instruction waits on outstanding
// loads (the data dependency after a load).
func alu(n int) []kernel.Inst { return aluj(n, 0) }

// aluj is alu with per-(warp, iteration) extra repeats in 0..j: the
// data-dependent work that desynchronises warps on real GPUs, creating the
// partially-overlapping warp groups LAWS exploits.
func aluj(n, j int) []kernel.Inst {
	if n <= 1 && j == 0 {
		return []kernel.Inst{{Op: kernel.OpALU, DependsOnMem: true}}
	}
	if n <= 1 {
		n = 2
	}
	return []kernel.Inst{
		{Op: kernel.OpALU, DependsOnMem: true},
		{Op: kernel.OpALU, Repeat: n - 1, RepeatJitter: j},
	}
}

func body(groups ...[]kernel.Inst) []kernel.Inst {
	var b []kernel.Inst
	for _, g := range groups {
		b = append(b, g...)
	}
	return b
}

func load(pc uint32, p kernel.Pattern) []kernel.Inst {
	return []kernel.Inst{{Op: kernel.OpLoad, PC: arch.PC(pc), Pattern: p}}
}

func store(pc uint32, p kernel.Pattern) []kernel.Inst {
	return []kernel.Inst{{Op: kernel.OpStore, PC: arch.PC(pc), Pattern: p}}
}

// registry lists the 15 workloads in the paper's Table IV order, each under
// the abbreviation its constructor gives the kernel. A lookup runs one
// constructor, so no two callers ever share a slice and nothing a caller
// writes into a returned Workload can reach a later lookup.
var registry = []struct {
	name  string
	build func() Workload
}{
	{"BFS", bfs}, {"MUM", mum}, {"NW", nw}, {"SPMV", spmv}, {"KM", km},
	{"LUD", lud}, {"SRAD", srad}, {"PA", pa}, {"HISTO", histo}, {"BP", bp},
	{"PF", pf}, {"CS", cs}, {"ST", st}, {"HS", hs}, {"SP", sp},
}

// index maps an abbreviation to its constructor.
var index = func() map[string]func() Workload {
	m := make(map[string]func() Workload, len(registry))
	for _, e := range registry {
		m[e.name] = e.build
	}
	return m
}()

// All returns the 15 workloads in the paper's Table IV order.
func All() []Workload {
	ws := make([]Workload, len(registry))
	for i, e := range registry {
		ws[i] = e.build()
	}
	return ws
}

// ByName returns the workload with the given abbreviation, building only
// that one.
func ByName(name string) (Workload, bool) {
	build, ok := index[name]
	if !ok {
		return Workload{}, false
	}
	return build(), true
}

// Known reports whether name is one of the 15 abbreviations, without
// building the workload.
func Known(name string) bool {
	_, ok := index[name]
	return ok
}

// Names lists the benchmark abbreviations in paper order.
func Names() []string {
	ns := make([]string, len(registry))
	for i, e := range registry {
		ns[i] = e.name
	}
	return ns
}

// MemoryIntensiveSet returns the ten memory-intensive workloads.
func MemoryIntensiveSet() []Workload {
	var out []Workload
	for _, w := range All() {
		if w.MemoryIntensive() {
			out = append(out, w)
		}
	}
	return out
}

// bfs models Breadth-First Search (Rodinia): three high-inter-warp-locality
// loads (Table I: #L/#R 0.04-0.12, stride 0) thrashed by an uncoalesced
// frontier/edge gather that floods the L1 (miss rates 0.78-0.90 at 32 KB).
func bfs() Workload {
	shared := func(i int, wrap int64, seed uint64) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(base(i)), SMStride: smSpan,
			Random: true, WarpShare: allWarps, WrapBytes: wrap,
			LaneStride: 4, Seed: seed,
		}
	}
	stream := kernel.Pattern{
		Base: arch.Addr(base(3)), SMStride: smSpan,
		WarpStride: 8192, IterStride: 8192 * 48,
		LaneStride: 8, // 256 B span: 2 lines per access (gather)
	}
	return Workload{
		Category:    CacheSensitive,
		Description: "graph frontier expansion: shared node/level arrays + uncoalesced edge gather",
		Kernel: kernel.Kernel{
			Name:             "BFS",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 20,
				Body: body(
					load(0x110, shared(0, 512<<10, 11)), aluj(8, 6),
					load(0xF0, shared(1, 256<<10, 12)), aluj(8, 6),
					load(0x198, shared(2, 128<<10, 13)), aluj(8, 6),
					load(0x1A0, stream), aluj(10, 6),
				),
			},
		},
	}
}

// mum models MUMmerGPU (Rodinia): suffix-tree traversal with very high
// locality (Table I: #L/#R 0.01-0.07, miss rates 0.04-0.17) over node data
// that mostly fits in the L1.
func mum() Workload {
	hot := func(i int, wrap int64, seed uint64) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(base(i)), SMStride: smSpan,
			Random: true, WarpShare: allWarps, WrapBytes: wrap,
			LaneStride: 8, Seed: seed, // 256 B span: mild divergence
		}
	}
	return Workload{
		Category:    CacheSensitive,
		Description: "suffix-tree traversal: small hot node set, high reuse",
		Kernel: kernel.Kernel{
			Name:             "MUM",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 48,
				Body: body(
					load(0x7A8, hot(0, 24<<10, 21)), aluj(8, 8),
					load(0x460, hot(1, 12<<10, 22)), aluj(8, 8),
					load(0x8A0, hot(2, 12<<10, 23)), aluj(8, 8),
				),
			},
		},
	}
}

// nw models Needleman-Wunsch (Rodinia): diagonal wavefront sweeps with a
// huge negative inter-warp stride (Table I: -1966080, #L/#R ~1, miss 1.0):
// pure streaming with no reuse, ideal for stride prefetching and beyond
// SLD's macro-block reach.
func nw() Workload {
	diag := func(i int) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(int64(1)<<40 + base(i)), SMStride: smSpan,
			WarpStride: -1966080, IterStride: -8192,
			LaneStride: 4,
		}
	}
	return Workload{
		Category:    CacheSensitive,
		Description: "dynamic-programming wavefront: large negative inter-warp strides, zero reuse",
		Kernel: kernel.Kernel{
			Name:             "NW",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 36,
				Body: body(
					load(0x490, diag(0)), aluj(8, 5),
					load(0xD18, diag(1)), aluj(8, 5),
					load(0x108, diag(2)), aluj(8, 5),
					store(0x500, kernel.Pattern{
						Base: arch.Addr(base(3)), SMStride: smSpan,
						WarpStride: 4096, IterStride: 4096 * 48, LaneStride: 4,
					}),
				),
			},
		},
	}
}

// spmv models sparse matrix-vector multiplication (Parboil): two
// high-locality loads (vector and row pointers) plus a pair-shared column
// load whose reuse is destroyed by contention (Table I: 0xE0 has #L/#R 0.65
// but miss rate 0.81).
func spmv() Workload {
	return Workload{
		Category:    CacheSensitive,
		Description: "SpMV: hot vector reuse + streaming matrix values",
		Kernel: kernel.Kernel{
			Name:             "SPMV",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 36,
				Body: body(
					load(0x1E0, kernel.Pattern{
						Base: arch.Addr(base(0)), SMStride: smSpan,
						Random: true, WarpShare: allWarps,
						WrapBytes: 192 << 10, LaneStride: 4, Seed: 31,
					}), aluj(8, 6),
					load(0x200, kernel.Pattern{
						Base: arch.Addr(base(1)), SMStride: smSpan,
						Random: true, WarpShare: allWarps,
						WrapBytes: 96 << 10, LaneStride: 4, Seed: 32,
					}), aluj(8, 6),
					load(0xE0, kernel.Pattern{
						Base: arch.Addr(base(2)), SMStride: smSpan,
						WarpShare: 2, WarpStride: 16384,
						IterStride: 128, IterWrapBytes: 16384,
						LaneStride: 32, // 1 KB span: 8 lines
					}), aluj(8, 6),
					store(0x300, kernel.Pattern{
						Base: arch.Addr(base(3)), SMStride: smSpan,
						WarpStride: 512, IterStride: 512 * 48, LaneStride: 4,
					}),
				),
			},
		},
	}
}

// km models KMeans (Rodinia): a single static load (100% of requests,
// Table I) with enormous reuse potential (#L/#R 0.03) destroyed by a
// working set that dwarfs the L1 (Section III.B: ~2 MB/SM, 60x the 32 KB
// L1), inter-warp stride 4352. This is the benchmark where CCWS's warp
// throttling beats APRES because only shrinking the active working set
// makes it fit.
func km() Workload {
	return Workload{
		Category:    CacheSensitive,
		Description: "KMeans feature scan: per-warp blocks re-read every pass, working set >> L1",
		Kernel: kernel.Kernel{
			Name:             "KM",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 112,
				Body: body(
					load(0xE8, kernel.Pattern{
						Base: arch.Addr(base(0)), SMStride: smSpan,
						WarpStride: 4352, IterStride: 512,
						IterWrapBytes: 2048, LaneStride: 16,
					}),
					aluj(2, 2),
				),
			},
		},
	}
}

// lud models LU Decomposition (Rodinia): strided loads (Table I: stride
// 2048) over a region the warps revisit across iterations (#L/#R ~0.6) but
// thrash at 32 KB (miss rates 0.91-0.97).
func lud() Workload {
	strided := func(i int, iterStride int64) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(base(i)), SMStride: smSpan,
			WarpStride: 2048, IterStride: iterStride,
			WrapBytes: 48 * 2048 * 2, LaneStride: 4,
		}
	}
	return Workload{
		Category:    CacheInsensitive,
		Description: "blocked LU: stride-2048 row sweeps with cross-warp overlap",
		Kernel: kernel.Kernel{
			Name:             "LUD",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 24,
				Body: body(
					load(0x20F0, strided(0, 2048)), aluj(8, 6),
					load(0x2080, strided(1, 4096)), aluj(8, 6),
					load(0x22E0, strided(2, 6144)), aluj(8, 6),
				),
			},
		},
	}
}

// srad models Speckle Reducing Anisotropic Diffusion (Rodinia): two pure
// stride-16384 streams with no reuse (Table I: #L/#R 0.99, miss 0.99) plus
// a half-shared load (#L/#R 0.52) whose reuse the streams evict.
func srad() Workload {
	stream := func(i int) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(base(i)), SMStride: smSpan,
			WarpStride: 16384, IterStride: 16384 * 48, LaneStride: 4,
		}
	}
	return Workload{
		Category:    CacheInsensitive,
		Description: "stencil diffusion: stride-16384 streams + pair-shared neighbour rows",
		Kernel: kernel.Kernel{
			Name:             "SRAD",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 36,
				Body: body(
					load(0x250, stream(0)), aluj(8, 6),
					load(0x230, stream(1)), aluj(8, 6),
					load(0x350, kernel.Pattern{
						Base: arch.Addr(base(2)), SMStride: smSpan,
						WarpShare: 2, WarpStride: 16384,
						IterStride: 16384 * 24, LaneStride: 4,
					}), aluj(8, 6),
					store(0x400, kernel.Pattern{
						Base: arch.Addr(base(3)), SMStride: smSpan,
						WarpStride: 16384, IterStride: 16384 * 48, LaneStride: 4,
					}),
				),
			},
		},
	}
}

// pa models PArticle filter (Rodinia): a thrashing weighted-resampling load
// (Table I: 0x2210 #L/#R 0.03, miss 0.98, stride 8832), a hot shared load
// that mostly hits (0x2230: miss 0.16), and a small stride-256 load.
func pa() Workload {
	return Workload{
		Category:    CacheInsensitive,
		Description: "particle filter: per-warp weight blocks re-scanned + hot shared state",
		Kernel: kernel.Kernel{
			Name:             "PA",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 112,
				Body: body(
					load(0x2210, kernel.Pattern{
						Base: arch.Addr(base(0)), SMStride: smSpan,
						WarpStride: 8832, IterStride: 128,
						IterWrapBytes: 8832, LaneStride: 4,
					}), aluj(6, 5),
					load(0x2230, kernel.Pattern{
						Base: arch.Addr(base(1)), SMStride: smSpan,
						Random: true, WarpShare: allWarps,
						WrapBytes: 20 << 10, LaneStride: 4, Seed: 51,
					}), aluj(6, 5),
					load(0x2088, kernel.Pattern{
						Base: arch.Addr(base(2)), SMStride: smSpan,
						WarpStride: 256, IterStride: 0,
						WrapBytes: 12 << 10, LaneStride: 4,
					}), aluj(6, 5),
				),
			},
		},
	}
}

// histo models HISTOgram (Parboil): one streaming load (Table I: stride
// 512, #L/#R 1, miss 1.0) whose stride detection is noisy (%Stride 20.8%)
// because iteration advance interleaves with warp order, plus scatter
// stores.
func histo() Workload {
	return Workload{
		Category:    CacheInsensitive,
		Description: "histogram: streaming input + scattered bin updates",
		Kernel: kernel.Kernel{
			Name:             "HISTO",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 48,
				Body: body(
					load(0x168, kernel.Pattern{
						Base: arch.Addr(base(0)), SMStride: smSpan,
						WarpStride: 512, IterStride: 512*48 + 384,
						LaneStride: 4,
					}), aluj(8, 5),
					store(0x200, kernel.Pattern{
						Base: arch.Addr(base(1)), SMStride: smSpan,
						Random: true, WrapBytes: 32 << 10, Seed: 61,
					}),
					aluj(8, 5),
				),
			},
		},
	}
}

// bp models Back Propagation (Rodinia): stride-128 weight-matrix streams
// (Table I: miss 1.0) and one hot layer-input load that almost always hits
// (0x478: miss 0.03). Under APRES the dense stride-128 prefetching inflates
// traffic (Figure 14: +16.4%) without hurting performance.
func bp() Workload {
	stream := func(i int, iterStride int64) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(base(i)), SMStride: smSpan,
			WarpStride: 128, IterStride: iterStride, LaneStride: 4,
		}
	}
	return Workload{
		Category:    CacheInsensitive,
		Description: "neural layer sweep: stride-128 weight streams + hot activations",
		Kernel: kernel.Kernel{
			Name:             "BP",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 44,
				Body: body(
					load(0x3F8, stream(0, 128*48)), aluj(8, 6),
					load(0x408, stream(1, 128*48)), aluj(8, 6),
					load(0x478, kernel.Pattern{
						Base: arch.Addr(base(2)), SMStride: smSpan,
						Random: true, WarpShare: allWarps,
						WrapBytes: 8 << 10, LaneStride: 4, Seed: 71,
					}), aluj(8, 6),
					store(0x500, stream(3, 128*48)),
				),
			},
		},
	}
}

// pf models PathFinder (Rodinia): compute-heavy dynamic programming with a
// modest strided load and shared-memory traffic.
func pf() Workload {
	return Workload{
		Category:    ComputeIntensive,
		Description: "grid DP: heavy ALU, shared-memory tiles, light strided loads",
		Kernel: kernel.Kernel{
			Name:             "PF",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 16,
				Body: body(
					load(0x600, kernel.Pattern{
						Base: arch.Addr(base(0)), SMStride: smSpan,
						WarpStride: 4096, IterStride: 4096 * 48, LaneStride: 4,
					}),
					aluj(56, 16),
					[]kernel.Inst{{Op: kernel.OpShared, Repeat: 4}},
					alu(12),
				),
			},
		},
	}
}

// cs models ConvolutionSeparable (CUDA SDK): regular coalesced streams with
// low reuse; prefetching, not scheduling, provides the speedup (Section V.B:
// >15% for CS and SP under APRES).
func cs() Workload {
	stream := func(i int, ws int64) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(base(i)), SMStride: smSpan,
			WarpStride: ws, IterStride: ws * 48, LaneStride: 4,
		}
	}
	return Workload{
		Category:    ComputeIntensive,
		Description: "separable convolution: perfectly regular streams, ALU heavy",
		Kernel: kernel.Kernel{
			Name:             "CS",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 20,
				Body: body(
					load(0x700, stream(0, 2048)), aluj(42, 10),
					load(0x710, stream(1, 2048)), aluj(46, 10),
					store(0x720, stream(2, 2048)),
				),
			},
		},
	}
}

// st models Stencil (Parboil): ALU-heavy with an irregular gather whose
// prefetches are wasted — the paper's worst case for prefetch energy
// (Figure 15: ST energy increases, under 10%).
func st() Workload {
	return Workload{
		Category:    ComputeIntensive,
		Description: "3D stencil: regular plane stream + irregular halo gather defeating prefetch",
		Kernel: kernel.Kernel{
			Name:             "ST",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 18,
				Body: body(
					load(0x800, kernel.Pattern{
						Base: arch.Addr(base(0)), SMStride: smSpan,
						WarpStride: 1536, IterStride: 1536 * 48, LaneStride: 4,
					}), aluj(40, 10),
					load(0x810, kernel.Pattern{
						Base: arch.Addr(base(1)), SMStride: smSpan,
						Random: true, WrapBytes: 4 << 20,
						LaneStride: 16, Seed: 81,
					}), aluj(44, 12),
				),
			},
		},
	}
}

// hs models HotSpot (Rodinia): compute-bound stencil with a hot tile that
// fits in cache plus a row stream.
func hs() Workload {
	return Workload{
		Category:    ComputeIntensive,
		Description: "thermal stencil: hot tile reuse + row streams, ALU dominated",
		Kernel: kernel.Kernel{
			Name:             "HS",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 16,
				Body: body(
					load(0x900, kernel.Pattern{
						Base: arch.Addr(base(0)), SMStride: smSpan,
						Random: true, WarpShare: allWarps,
						WrapBytes: 24 << 10, LaneStride: 4, Seed: 91,
					}), aluj(40, 10),
					load(0x910, kernel.Pattern{
						Base: arch.Addr(base(1)), SMStride: smSpan,
						WarpStride: 2048, IterStride: 2048 * 48, LaneStride: 4,
					}), aluj(40, 10),
				),
			},
		},
	}
}

// sp models ScalarProd (CUDA SDK): two perfectly regular input streams with
// zero reuse; prefetching converts cold misses into hits (Section V.B/V.D:
// up to 17.2% speedup, large early-eviction reduction).
func sp() Workload {
	stream := func(i int) kernel.Pattern {
		return kernel.Pattern{
			Base: arch.Addr(base(i)), SMStride: smSpan,
			WarpStride: 512, IterStride: 512 * 48, LaneStride: 4,
		}
	}
	return Workload{
		Category:    ComputeIntensive,
		Description: "dot products: two regular streams, moderate ALU",
		Kernel: kernel.Kernel{
			Name:             "SP",
			WarpsPerSM:       48,
			LaunchWarpsPerSM: 96,
			Program: kernel.Program{
				Iterations: 24,
				Body: body(
					load(0xA00, stream(0)), aluj(34, 8),
					load(0xA10, stream(1)), aluj(38, 8),
				),
			},
		},
	}
}
