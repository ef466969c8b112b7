// Package mem implements the set-associative caches and MSHR files of the
// simulated GPU. The same Cache type backs the per-SM L1 data cache and each
// L2 partition. Beyond ordinary hit/miss behaviour it implements the
// bookkeeping the APRES paper's evaluation depends on:
//
//   - miss classification into cold vs capacity+conflict (Section III.A:
//     a miss on a line that was previously resident counts as
//     capacity/conflict),
//   - MSHR merging of demand requests into in-flight misses, including
//     in-flight prefetches (the APRES timeliness mechanism), and
//   - per-line prefetch/used tagging so early evictions — correctly
//     predicted prefetched lines evicted before first demand use — can be
//     counted exactly as defined for Figures 4 and 12.
package mem

import (
	"fmt"

	"apres/internal/arch"
	"apres/internal/trace"
)

// line is one cache line's metadata.
type line struct {
	tag        arch.LineAddr
	valid      bool
	lastUse    int64
	prefetched bool // filled by a prefetch
	used       bool // demand-accessed since fill
	// owner is the warp that brought the line in (first demand waiter,
	// or the prefetch target); CCWS victim tag arrays are per-owner.
	owner arch.WarpID
	// pfPC is the static load whose prefetcher entry fetched the line
	// (prefetched lines only); feeds per-PC prefetch accuracy tracking.
	pfPC arch.PC
}

// MSHREntry tracks one in-flight miss.
type MSHREntry struct {
	// Line is the missing cache line.
	Line arch.LineAddr
	// Prefetch records whether the entry was allocated by a prefetch.
	Prefetch bool
	// DemandMerged records whether a demand request merged into a
	// prefetch entry while in flight (a "late but useful" prefetch).
	DemandMerged bool
	// Waiters are the requests to wake when the fill arrives.
	Waiters []arch.MemReq
	// Owner is the warp that allocated the entry (the demand requester,
	// or the warp a prefetch targets); it becomes the filled line's
	// owner for CCWS victim tagging.
	Owner arch.WarpID
	// PC is the static load that allocated the entry.
	PC arch.PC
	// IssueCycle is when the entry was allocated.
	IssueCycle int64
}

// Outcome describes one Access call.
type Outcome struct {
	// Result is the access result (hit, miss, merged, stall).
	Result arch.AccessResult
	// Class classifies misses as cold or capacity+conflict.
	Class arch.MissClass
	// Entry is the MSHR entry for Result Miss (newly allocated) or
	// MergedMSHR (existing); nil otherwise.
	Entry *MSHREntry
	// FirstUseOfPrefetch reports a demand hit on a prefetched line that
	// had not been demand-used yet (counts the prefetch as useful);
	// PrefetchPC identifies the load whose prefetch fetched it.
	FirstUseOfPrefetch bool
	PrefetchPC         arch.PC
	// MergedIntoPrefetch reports a demand merge into an in-flight
	// prefetch entry.
	MergedIntoPrefetch bool
	// ProvesEarlyEviction reports that this demand access targets a line
	// that was prefetched and evicted unused: the prefetch prediction was
	// correct but the line was evicted early.
	ProvesEarlyEviction bool
}

// FillOutcome describes one Fill call.
type FillOutcome struct {
	// Entry is the completed MSHR entry (with its waiters), or nil if no
	// entry was outstanding for the line.
	Entry *MSHREntry
	// VictimUnusedPrefetch reports that the evicted victim was a
	// prefetched line never demand-used; whether that eviction was
	// "early" (vs useless) is only known if a later demand proves it.
	VictimUnusedPrefetch bool
	// PrefetchCompletedUseful reports that a prefetch entry with a
	// merged demand completed: the prefetch was useful (late, but the
	// latency was partially hidden).
	PrefetchCompletedUseful bool
	// VictimValid reports that a valid line was evicted; VictimTag and
	// VictimOwner describe it (CCWS inserts the tag into the owner's
	// victim tag array).
	VictimValid bool
	VictimTag   arch.LineAddr
	VictimOwner arch.WarpID
	// VictimPrefetchPC is the prefetching load of an unused prefetched
	// victim (valid when VictimUnusedPrefetch).
	VictimPrefetchPC arch.PC
	// PrefetchPC is the allocating load of a completed prefetch entry.
	PrefetchPC arch.PC
}

// Cache is a set-associative, LRU, allocate-on-fill cache with an MSHR file.
// It is single-threaded by design: the simulator drives all components from
// one clock loop.
type Cache struct {
	name    string
	numSets int
	ways    int
	sets    []line // numSets*ways, flattened

	mshrMax int
	// mshr indexes the in-flight entries by line. Access admits a new entry
	// only below mshrMax, so the table — sized for mshrMax — never grows.
	mshr LineTable[*MSHREntry]
	// retired holds entries removed from mshr by Fill whose caller may
	// still be reading them; the next Access or Fill moves them to free
	// for reuse. Entries are never retained across cache calls (both the
	// SM and the memory system consume Waiters synchronously), so this
	// two-stage recycling makes misses allocation-free at steady state
	// while keeping the just-returned entry intact.
	retired []*MSHREntry
	free    []*MSHREntry

	// everSeen supports cold vs capacity+conflict classification (L1 only,
	// see lowerLevel); it only ever grows.
	everSeen LineSet
	// evictedUnusedPF holds prefetched lines evicted before use; a later
	// demand for such a line proves the prefetch correct (early
	// eviction), otherwise the prefetch was useless (L1 only).
	evictedUnusedPF LineTable[struct{}]

	// lastDemandWasHit supports the hit-after-hit breakdown.
	lastDemandWasHit bool
	hasLastDemand    bool

	// lowerLevel marks an L2 slice. Access then treats prefetch requests as
	// ordinary reads: the L1 drops prefetches for resident or in-flight
	// lines, but once a prefetch is forwarded below the L1 it is a real read
	// that must return data. And the L1-only bookkeeping — miss classes and
	// the early-eviction set — is not kept: the memory system reads nothing
	// of an Outcome but its Result, so Class stays MissNone and
	// ProvesEarlyEviction false.
	lowerLevel bool

	// tr, when non-nil, receives cache and MSHR events; trUnit is the
	// owning SM's index. Only L1 instances are traced (the SM attaches the
	// tracer); the memory system traces its L2 slices at queue level.
	tr     *trace.Tracer
	trUnit int32
}

// SetTracer attaches an event tracer; unit identifies the owning SM in the
// emitted events. Passing nil detaches.
func (c *Cache) SetTracer(tr *trace.Tracer, unit int32) {
	c.tr = tr
	c.trUnit = unit
}

// NewL2Cache builds a cache slice for the shared L2: identical to NewCache
// except that prefetch requests are serviced like demand reads instead of
// being dropped when resident, and misses are not classified.
func NewL2Cache(name string, sizeBytes, ways, mshrs int) *Cache {
	c := NewCache(name, sizeBytes, ways, mshrs)
	c.lowerLevel = true
	return c
}

// NewCache builds a cache with the given total size in bytes, associativity,
// and MSHR entries. Line size is arch.LineSizeBytes.
func NewCache(name string, sizeBytes, ways, mshrs int) *Cache {
	lines := sizeBytes / arch.LineSizeBytes
	if lines <= 0 || ways <= 0 || lines%ways != 0 {
		panic(fmt.Sprintf("mem: bad cache geometry %s: %dB %d-way", name, sizeBytes, ways))
	}
	return &Cache{
		name:    name,
		numSets: lines / ways,
		ways:    ways,
		sets:    make([]line, lines),
		mshrMax: mshrs,
		mshr:    NewLineTable[*MSHREntry](mshrs),
	}
}

// Name returns the cache's name (for debugging and error text).
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// MSHRCount returns the number of in-flight MSHR entries.
func (c *Cache) MSHRCount() int { return c.mshr.Len() }

// MSHRMax returns the MSHR file capacity.
func (c *Cache) MSHRMax() int { return c.mshrMax }

func (c *Cache) set(l arch.LineAddr) []line {
	s := int(uint64(l) % uint64(c.numSets))
	return c.sets[s*c.ways : (s+1)*c.ways]
}

// lookup returns the way holding l, or nil.
func (c *Cache) lookup(l arch.LineAddr) *line {
	set := c.set(l)
	for i := range set {
		if set[i].valid && set[i].tag == l {
			return &set[i]
		}
	}
	return nil
}

// Contains reports whether line l is resident.
func (c *Cache) Contains(l arch.LineAddr) bool { return c.lookup(l) != nil }

// InFlight reports whether line l has an outstanding MSHR entry.
func (c *Cache) InFlight(l arch.LineAddr) bool { return c.mshr.Has(l) }

// MSHRWaiters returns the waiter list of the outstanding entry for line l,
// or nil when none is in flight. Read-only peek for the memory system's
// epoch lookahead; the slice aliases the live entry and must not be held
// across an Access or Fill.
func (c *Cache) MSHRWaiters(l arch.LineAddr) []arch.MemReq {
	if e, ok := c.mshr.Get(l); ok {
		return e.Waiters
	}
	return nil
}

// Access performs one demand or prefetch access.
//
// Demand semantics: a hit updates LRU and prefetch-use state; a miss merges
// into an in-flight MSHR if present, otherwise allocates one (Result Miss —
// the caller must forward the request to the next level); if the MSHR file
// is full the access stalls and must be retried.
//
// Prefetch semantics: if the line is resident or in flight the prefetch is
// dropped (Result Hit / MergedMSHR, which callers count as
// PrefetchDropped); otherwise it allocates a prefetch-flagged MSHR entry.
func (c *Cache) Access(req arch.MemReq, cycle int64) Outcome {
	c.recycleRetired()
	isDemand := req.Kind != arch.AccessPrefetch || c.lowerLevel
	if ln := c.lookup(req.Line); ln != nil {
		out := Outcome{Result: arch.ResultHit}
		if isDemand {
			ln.lastUse = cycle
			if ln.prefetched && !ln.used {
				out.FirstUseOfPrefetch = true
				out.PrefetchPC = ln.pfPC
			}
			ln.used = true
			c.noteDemand(true)
			if c.tr != nil {
				c.tr.Emit(trace.Event{Kind: trace.KindL1Hit, Unit: c.trUnit,
					Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line)})
			}
		}
		return out
	}
	if e, ok := c.mshr.Get(req.Line); ok {
		out := Outcome{Result: arch.ResultMergedMSHR, Entry: e}
		if isDemand {
			e.Waiters = append(e.Waiters, req)
			if e.Prefetch && !e.DemandMerged {
				e.DemandMerged = true
				out.MergedIntoPrefetch = true
			}
			if !c.lowerLevel {
				// The miss that allocated e put the line in everSeen.
				out.Class = arch.MissCapacityConflict
			}
			c.noteDemand(false)
			if c.tr != nil {
				var arg int64
				if out.MergedIntoPrefetch {
					arg = 1
				}
				c.tr.Emit(trace.Event{Kind: trace.KindMSHRMerge, Unit: c.trUnit,
					Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line), Arg: arg})
			}
		}
		return out
	}
	if c.mshr.Len() >= c.mshrMax {
		return Outcome{Result: arch.ResultStall}
	}
	e := c.newEntry()
	*e = MSHREntry{
		Line:       req.Line,
		Prefetch:   req.Kind == arch.AccessPrefetch,
		Owner:      req.Warp,
		PC:         req.PC,
		IssueCycle: cycle,
		Waiters:    e.Waiters[:0],
	}
	out := Outcome{Result: arch.ResultMiss, Entry: e}
	c.mshr.Put(req.Line, e)
	if isDemand {
		e.Waiters = append(e.Waiters, req)
		c.noteDemand(false)
	}
	if !c.lowerLevel {
		seen := c.everSeen.Add(req.Line)
		if isDemand {
			out.Class = missClass(seen)
			// The set is empty unless a prefetcher is running and losing
			// lines, so most misses skip the probe.
			if c.evictedUnusedPF.Len() > 0 {
				_, out.ProvesEarlyEviction = c.evictedUnusedPF.Delete(req.Line)
			}
		}
	}
	if c.tr != nil {
		if isDemand {
			var class int64
			if out.Class == arch.MissCapacityConflict {
				class = 1
			}
			c.tr.Emit(trace.Event{Kind: trace.KindL1Miss, Unit: c.trUnit,
				Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line), Arg: class})
			if out.ProvesEarlyEviction {
				c.tr.Emit(trace.Event{Kind: trace.KindEarlyEvict, Unit: c.trUnit,
					Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line)})
			}
		}
		c.tr.Emit(trace.Event{Kind: trace.KindMSHRAlloc, Unit: c.trUnit,
			Warp: int32(req.Warp), PC: uint32(req.PC), Line: uint64(req.Line),
			Arg: int64(c.mshr.Len())})
	}
	return out
}

// missClass implements Section III.A's cold vs capacity+conflict split: a
// miss on a line that missed before is a capacity or conflict miss.
func missClass(seenBefore bool) arch.MissClass {
	if seenBefore {
		return arch.MissCapacityConflict
	}
	return arch.MissCold
}

// noteDemand updates the hit-after-hit tracking state.
func (c *Cache) noteDemand(hit bool) {
	c.lastDemandWasHit = hit
	c.hasLastDemand = true
}

// LastDemandWasHit reports whether the most recent demand access hit; used
// by the SM to attribute the NEXT hit as hit-after-hit or hit-after-miss.
func (c *Cache) LastDemandWasHit() (hit, known bool) {
	return c.lastDemandWasHit, c.hasLastDemand
}

// recycleRetired moves entries whose Fill outcome has been consumed onto
// the free list. Safe to call at the top of Access and Fill: the simulator
// is single-threaded and no caller holds an MSHR entry across cache calls.
func (c *Cache) recycleRetired() {
	if len(c.retired) == 0 {
		return
	}
	c.free = append(c.free, c.retired...)
	c.retired = c.retired[:0]
}

// newEntry takes an entry from the free list or allocates a fresh one. The
// caller overwrites every field (reusing the Waiters array).
func (c *Cache) newEntry() *MSHREntry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	return &MSHREntry{}
}

// Fill delivers line l from the next level: the completed MSHR entry is
// removed and returned, and the line is installed, evicting the LRU victim.
func (c *Cache) Fill(l arch.LineAddr, cycle int64) FillOutcome {
	c.recycleRetired()
	var out FillOutcome
	e, _ := c.mshr.Delete(l)
	if e != nil {
		c.retired = append(c.retired, e)
		out.Entry = e
		out.PrefetchPC = e.PC
		if e.Prefetch && e.DemandMerged {
			out.PrefetchCompletedUseful = true
		}
		if c.tr != nil {
			c.tr.Emit(trace.Event{Kind: trace.KindMSHRRetire, Unit: c.trUnit,
				Warp: int32(e.Owner), PC: uint32(e.PC), Line: uint64(l),
				Arg: int64(c.mshr.Len())})
			if e.Prefetch {
				var arg int64
				if e.DemandMerged {
					arg = 1
				}
				c.tr.Emit(trace.Event{Kind: trace.KindPrefetchFill, Unit: c.trUnit,
					Warp: int32(e.Owner), PC: uint32(e.PC), Line: uint64(l), Arg: arg})
			}
		}
	}
	// One pass over the set finds both a resident copy (e.g. a racing
	// fill — nothing to install) and the LRU victim; Fill is on the
	// per-response hot path, so the set is not scanned twice.
	set := c.set(l)
	victim := &set[0]
	for i := range set {
		if set[i].valid && set[i].tag == l {
			return out
		}
		if !victim.valid {
			continue
		}
		if !set[i].valid || set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	if victim.valid {
		out.VictimValid = true
		out.VictimTag = victim.tag
		out.VictimOwner = victim.owner
		if victim.prefetched && !victim.used {
			out.VictimUnusedPrefetch = true
			out.VictimPrefetchPC = victim.pfPC
			if !c.lowerLevel {
				c.evictedUnusedPF.Put(victim.tag, struct{}{})
			}
		}
		if c.tr != nil {
			var arg int64
			if out.VictimUnusedPrefetch {
				arg = 1
			}
			c.tr.Emit(trace.Event{Kind: trace.KindL1Evict, Unit: c.trUnit,
				Warp: int32(victim.owner), PC: uint32(victim.pfPC),
				Line: uint64(victim.tag), Arg: arg})
		}
	}
	prefetchFill := e != nil && e.Prefetch
	owner := arch.InvalidWarp
	if e != nil {
		owner = e.Owner
	}
	nl := line{
		tag:        l,
		valid:      true,
		lastUse:    cycle,
		prefetched: prefetchFill,
		// A prefetch whose entry already has a merged demand is consumed
		// immediately on fill, so it counts as used from the start.
		used:  !prefetchFill || e.DemandMerged,
		owner: owner,
	}
	if prefetchFill {
		nl.pfPC = e.PC
	}
	*victim = nl
	return out
}

// UnresolvedEarlyEvictions returns the number of prefetched lines evicted
// unused whose prediction was never proven by a later demand: these are the
// useless prefetches counted at the end of a simulation.
func (c *Cache) UnresolvedEarlyEvictions() int { return c.evictedUnusedPF.Len() }

// LinesEverMissed returns the size of the miss-classification set: the
// distinct lines that have allocated an MSHR entry here. Always 0 for an L2
// slice, which keeps none.
func (c *Cache) LinesEverMissed() int { return c.everSeen.Len() }

// Reset clears all content, MSHRs and classification state in place: the
// tables keep their slot arrays and every MSHR entry goes back on the free
// list, so a reset cache replays an access sequence without allocating.
func (c *Cache) Reset() {
	clear(c.sets)
	c.recycleRetired()
	c.mshr.Each(func(_ arch.LineAddr, e *MSHREntry) { c.free = append(c.free, e) })
	c.mshr.Clear()
	c.everSeen.Clear()
	c.evictedUnusedPF.Clear()
	c.hasLastDemand = false
	c.lastDemandWasHit = false
}
