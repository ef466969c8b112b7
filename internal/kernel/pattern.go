// Address generation for synthetic kernels. One Pattern struct expresses the
// access shapes of Table I: inter-warp strided scans (stride = WarpStride),
// shared/high-locality loads (WarpStride 0 with a small Wrap region),
// irregular accesses (Random over a footprint), and both coalesced
// (LaneStride 4) and uncoalesced (LaneRandom or large LaneStride) lane
// behaviour.
package kernel

import (
	"fmt"

	"apres/internal/arch"
)

// AddrTable replays recorded per-warp address sequences (trace replay,
// internal/workspec): entry (warp, iter) holds the lead byte address and
// byte span of that warp's iter-th dynamic access of one static
// instruction. A Pattern carrying a Table ignores its synthetic stride
// terms; only SMStride still applies (separating per-SM replay copies).
type AddrTable struct {
	// Warps and Iters give the table extent. Addrs and Sizes are dense
	// row-major [warp][iter] arrays of length Warps*Iters.
	Warps, Iters int
	Addrs        []arch.Addr
	// Sizes holds each access's span in bytes; the 32 lanes are spread
	// evenly across it (size 128 = one line, fully coalesced).
	Sizes []int32
}

// At returns the recorded lead address and size for (warp, iter). Logical
// warp IDs past the recorded warp count wrap onto recorded warps (CTA
// refill re-uses the recorded streams); iterations past the recorded
// length repeat the final access (warm, documented padding).
func (t *AddrTable) At(warp arch.WarpID, iter int) (arch.Addr, int32) {
	w := int(warp) % t.Warps
	if iter >= t.Iters {
		iter = t.Iters - 1
	}
	i := w*t.Iters + iter
	return t.Addrs[i], t.Sizes[i]
}

// validate checks a table-backed pattern's internal consistency.
func (t *AddrTable) validate() error {
	if t.Warps <= 0 || t.Iters <= 0 {
		return fmt.Errorf("address table needs positive extent, got %dx%d", t.Warps, t.Iters)
	}
	n := t.Warps * t.Iters
	if len(t.Addrs) != n || len(t.Sizes) != n {
		return fmt.Errorf("address table %dx%d wants %d entries, got %d addrs / %d sizes",
			t.Warps, t.Iters, n, len(t.Addrs), len(t.Sizes))
	}
	for i, s := range t.Sizes {
		if s <= 0 {
			return fmt.Errorf("address table entry %d has non-positive size %d", i, s)
		}
	}
	return nil
}

// Pattern describes the address function of one static memory instruction.
// The effective address for (sm, warp, iter, lane) is
//
//	Base + sm*SMStride + wrap(warp*WarpStride + iter*IterStride) + laneOff
//
// where wrap confines the offset to WrapBytes when nonzero, and Random
// replaces the linear warp/iter term with a hash over (Seed, warp, iter)
// within WrapBytes.
type Pattern struct {
	// Base is the array base address.
	Base arch.Addr
	// SMStride separates the footprints of different SMs (0 models
	// read-only data shared GPU-wide, e.g. KMeans centroids).
	SMStride int64
	// WarpStride is the inter-warp stride the paper's Table I reports;
	// SAP predicts other warps' addresses from it.
	WarpStride int64
	// IterStride advances the access each loop iteration.
	IterStride int64
	// IterWrapBytes wraps only the iteration term, so each warp scans a
	// private region of this size repeatedly (intra-warp reuse, e.g.
	// KMeans re-reading its centroid block).
	IterWrapBytes int64
	// LaneStride spaces the 32 lanes of the warp; 4 (a 4-byte element)
	// keeps the warp inside one 128 B line (fully coalesced).
	LaneStride int64
	// WrapBytes confines the warp/iter offset to a region of this size
	// (the working-set knob); 0 means unbounded.
	WrapBytes int64
	// WarpShare makes groups of WarpShare consecutive warps share
	// addresses (the warp ID is divided by it before use): 0 or 1 means
	// every warp distinct; a value >= the warp count makes the address
	// warp-invariant — the inter-warp-locality loads of Table I.
	WarpShare int
	// Random draws the warp/iter offset pseudo-randomly (128 B aligned)
	// from WrapBytes instead of the linear term (irregular loads).
	Random bool
	// LaneRandom additionally randomises each lane within WrapBytes,
	// producing fully uncoalesced accesses.
	LaneRandom bool
	// Seed perturbs the hash for Random/LaneRandom patterns.
	Seed uint64
	// Table, when non-nil, replaces synthetic address generation with a
	// recorded per-warp address table (trace replay). Of the synthetic
	// fields only SMStride still applies.
	Table *AddrTable
}

// validate checks the pattern's internal consistency (currently only
// table-backed patterns can be inconsistent).
func (p Pattern) validate() error {
	if p.Table != nil {
		return p.Table.validate()
	}
	return nil
}

// splitmix64 is the SplitMix64 mixing function: a tiny, high-quality,
// deterministic hash for synthetic address generation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Addr returns the byte address accessed by the given lane. It is the
// definition of the address function; LaneAddrs computes the same values a
// warp at a time.
func (p Pattern) Addr(sm int, warp arch.WarpID, iter, lane int) arch.Addr {
	if p.Table != nil {
		base, size := p.Table.At(warp, iter)
		addr := int64(base) + int64(sm)*p.SMStride + int64(lane)*int64(size)/arch.WarpSize
		if addr < 0 {
			addr = -addr
		}
		return arch.Addr(addr)
	}
	if p.WarpShare > 1 {
		warp /= arch.WarpID(p.WarpShare)
	}
	var laneOff int64
	if p.LaneRandom {
		h := splitmix64(p.Seed ^ 0xabcd ^ splitmix64(uint64(warp)<<40^uint64(iter)<<8^uint64(lane)))
		if p.WrapBytes > 0 {
			laneOff = int64(h % uint64(p.WrapBytes))
		}
	} else {
		laneOff = int64(lane) * p.LaneStride
	}
	addr := int64(p.Base) + int64(sm)*p.SMStride + p.warpOffset(warp, iter) + laneOff
	if addr < 0 {
		addr = -addr
	}
	return arch.Addr(addr)
}

// warpOffset is the lane-invariant warp/iteration term of the address: the
// Random hash, or the linear term with its two wraps. warp is the warp ID
// after WarpShare division.
func (p *Pattern) warpOffset(warp arch.WarpID, iter int) int64 {
	if p.Random {
		h := splitmix64(p.Seed ^ splitmix64(uint64(warp)<<32^uint64(iter)))
		if p.WrapBytes > 0 {
			return int64(h%uint64(p.WrapBytes)) &^ (arch.LineSizeBytes - 1)
		}
		return 0
	}
	iterOff := int64(iter) * p.IterStride
	if p.IterWrapBytes > 0 {
		iterOff %= p.IterWrapBytes
		if iterOff < 0 {
			iterOff += p.IterWrapBytes
		}
	}
	off := int64(warp)*p.WarpStride + iterOff
	if p.WrapBytes > 0 {
		off %= p.WrapBytes
		if off < 0 {
			off += p.WrapBytes
		}
	}
	return off
}

// LaneAddrs fills dst (len arch.WarpSize) with all lane addresses: dst[lane]
// == Addr(sm, warp, iter, lane). It runs once per issued memory instruction,
// so the pattern is taken by pointer and, where the lanes differ only by
// lane*LaneStride, everything else is computed once for the warp. Table
// replay and LaneRandom patterns have no such split and go lane by lane.
func (p *Pattern) LaneAddrs(dst []arch.Addr, sm int, warp arch.WarpID, iter int) {
	if p.Table != nil || p.LaneRandom {
		for lane := range dst {
			dst[lane] = p.Addr(sm, warp, iter, lane)
		}
		return
	}
	if p.WarpShare > 1 {
		warp /= arch.WarpID(p.WarpShare)
	}
	addr := int64(p.Base) + int64(sm)*p.SMStride + p.warpOffset(warp, iter)
	for lane := range dst {
		a := addr
		if a < 0 {
			a = -a
		}
		dst[lane] = arch.Addr(a)
		addr += p.LaneStride
	}
}

// Coalesce reduces a warp's lane addresses to the unique cache lines they
// touch, preserving first-appearance order (the memory request coalescing of
// Section II). dst is an optional reuse buffer.
func Coalesce(dst []arch.LineAddr, addrs []arch.Addr) []arch.LineAddr {
	dst = dst[:0]
	for _, a := range addrs {
		l := a.Line()
		dup := false
		for _, seen := range dst {
			if seen == l {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, l)
		}
	}
	return dst
}
