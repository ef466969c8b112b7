// Package stats collects the simulation counters from which every figure and
// table of the APRES paper is regenerated: IPC (Figure 10), the
// hit-after-hit / hit-after-miss / cold / capacity+conflict breakdown
// (Figures 2 and 11), early evictions (Figures 4 and 12), average memory
// latency (Figure 13), data traffic (Figure 14), and the event counts the
// energy model consumes (Figure 15).
package stats

// Stats accumulates counters for one SM or, via Add, for a whole GPU.
type Stats struct {
	// Cycles is the number of simulated cycles.
	Cycles int64
	// Instructions is the number of warp instructions issued.
	Instructions int64
	// IssueStallCycles counts cycles where no warp could issue.
	IssueStallCycles int64

	// L1 demand accesses (after coalescing).
	L1Accesses int64
	// L1Hits counts demand hits on resident lines.
	L1Hits int64
	// L1HitAfterHit counts hits whose immediately preceding demand access
	// to the same L1 was also a hit (Figure 11's "hit-after-hit").
	L1HitAfterHit int64
	// L1HitAfterMiss counts hits preceded by a miss.
	L1HitAfterMiss int64
	// L1ColdMisses counts first-touch misses.
	L1ColdMisses int64
	// L1CapConfMisses counts misses on previously cached lines
	// (the paper groups capacity and conflict misses).
	L1CapConfMisses int64
	// L1MSHRMerges counts demand misses merged into in-flight MSHRs.
	// The paper counts these as misses for miss-rate purposes but they
	// do not re-fetch from L2.
	L1MSHRMerges int64
	// L1PrefetchMerges counts demand misses merged into in-flight
	// prefetch MSHRs — the APRES "demand merged to prefetch" case.
	L1PrefetchMerges int64
	// L1Stalls counts accesses rejected for structural hazards
	// (MSHR file full).
	L1Stalls int64

	// PrefetchIssued counts prefetch requests injected into the L1.
	PrefetchIssued int64
	// PrefetchDropped counts prefetches dropped because the line was
	// already resident or in flight.
	PrefetchDropped int64
	// PrefetchFills counts lines filled into the L1 by prefetches.
	PrefetchFills int64
	// PrefetchUseful counts prefetched lines that served at least one
	// demand access before eviction.
	PrefetchUseful int64
	// PrefetchEarlyEvicted counts correctly predicted prefetched lines
	// evicted before any demand use (the line was demanded again after
	// eviction, proving the prediction correct) — the paper's early
	// eviction numerator.
	PrefetchEarlyEvicted int64
	// PrefetchUseless counts prefetched lines evicted unused and never
	// demanded afterwards (wrong prediction).
	PrefetchUseless int64

	// L2Accesses, L2Hits, L2Misses count L2 demand traffic.
	L2Accesses int64
	GPUL2Hits  int64
	L2Misses   int64

	// DRAMAccesses counts requests serviced by DRAM partitions.
	DRAMAccesses int64
	// DRAMQueueCycles accumulates queueing delay beyond the minimum
	// DRAM latency.
	DRAMQueueCycles int64

	// MemLatencySum accumulates, over completed demand requests, the
	// cycles from L1 miss issue to fill; MemLatencyCount is the number of
	// such requests. Their ratio is Figure 13's average memory latency.
	MemLatencySum   int64
	MemLatencyCount int64

	// BytesToSM counts bytes moved from the memory system into SMs
	// (L1 fill traffic, demand and prefetch), Figure 14's metric.
	BytesToSM int64
	// BytesFromDRAM counts bytes read from DRAM.
	BytesFromDRAM int64

	// RegFileAccesses approximates operand reads/writes for the energy
	// model: each issued instruction accesses the register file.
	RegFileAccesses int64
	// SharedMemAccesses counts scratchpad accesses.
	SharedMemAccesses int64
	// APRESTableAccesses counts LLT/WGT/PT/WQ/DRQ operations so the
	// energy model can charge APRES's own hardware.
	APRESTableAccesses int64
}

// Add accumulates other into s (for aggregating per-SM stats into GPU
// totals). Cycles is taken as the max rather than the sum, since SMs run on
// a common clock.
func (s *Stats) Add(other *Stats) {
	if other.Cycles > s.Cycles {
		s.Cycles = other.Cycles
	}
	s.Instructions += other.Instructions
	s.IssueStallCycles += other.IssueStallCycles
	s.L1Accesses += other.L1Accesses
	s.L1Hits += other.L1Hits
	s.L1HitAfterHit += other.L1HitAfterHit
	s.L1HitAfterMiss += other.L1HitAfterMiss
	s.L1ColdMisses += other.L1ColdMisses
	s.L1CapConfMisses += other.L1CapConfMisses
	s.L1MSHRMerges += other.L1MSHRMerges
	s.L1PrefetchMerges += other.L1PrefetchMerges
	s.L1Stalls += other.L1Stalls
	s.PrefetchIssued += other.PrefetchIssued
	s.PrefetchDropped += other.PrefetchDropped
	s.PrefetchFills += other.PrefetchFills
	s.PrefetchUseful += other.PrefetchUseful
	s.PrefetchEarlyEvicted += other.PrefetchEarlyEvicted
	s.PrefetchUseless += other.PrefetchUseless
	s.L2Accesses += other.L2Accesses
	s.GPUL2Hits += other.GPUL2Hits
	s.L2Misses += other.L2Misses
	s.DRAMAccesses += other.DRAMAccesses
	s.DRAMQueueCycles += other.DRAMQueueCycles
	s.MemLatencySum += other.MemLatencySum
	s.MemLatencyCount += other.MemLatencyCount
	s.BytesToSM += other.BytesToSM
	s.BytesFromDRAM += other.BytesFromDRAM
	s.RegFileAccesses += other.RegFileAccesses
	s.SharedMemAccesses += other.SharedMemAccesses
	s.APRESTableAccesses += other.APRESTableAccesses
}

// IPC returns instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// L1Misses returns the total demand miss count (cold + capacity/conflict +
// MSHR merges, matching the paper's treatment of merges as misses).
func (s *Stats) L1Misses() int64 {
	return s.L1ColdMisses + s.L1CapConfMisses + s.L1MSHRMerges
}

// L1MissRate returns misses over demand accesses.
func (s *Stats) L1MissRate() float64 {
	if s.L1Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses()) / float64(s.L1Accesses)
}

// L1HitRate returns hits over demand accesses.
func (s *Stats) L1HitRate() float64 {
	if s.L1Accesses == 0 {
		return 0
	}
	return float64(s.L1Hits) / float64(s.L1Accesses)
}

// ColdMissRate returns cold misses over demand accesses.
func (s *Stats) ColdMissRate() float64 {
	if s.L1Accesses == 0 {
		return 0
	}
	return float64(s.L1ColdMisses) / float64(s.L1Accesses)
}

// CapConfMissRate returns capacity+conflict misses (including merges, which
// exist only because an earlier miss is still outstanding) over accesses.
func (s *Stats) CapConfMissRate() float64 {
	if s.L1Accesses == 0 {
		return 0
	}
	return float64(s.L1CapConfMisses+s.L1MSHRMerges) / float64(s.L1Accesses)
}

// EarlyEvictionRatio returns, over correctly predicted prefetches (used or
// early-evicted), the fraction evicted before demand use — the metric of
// Figures 4 and 12.
func (s *Stats) EarlyEvictionRatio() float64 {
	correct := s.PrefetchUseful + s.PrefetchEarlyEvicted
	if correct == 0 {
		return 0
	}
	return float64(s.PrefetchEarlyEvicted) / float64(correct)
}

// AvgMemLatency returns the mean L1-miss-to-fill latency in cycles
// (Figure 13).
func (s *Stats) AvgMemLatency() float64 {
	if s.MemLatencyCount == 0 {
		return 0
	}
	return float64(s.MemLatencySum) / float64(s.MemLatencyCount)
}

// EngineStats describes how the engine executed a run — parallel epoch
// counts and the cycles they covered. It is execution metadata, not
// simulated state: serial and parallel runs of the same workload produce
// bit-identical simulated results but different EngineStats (a serial run's
// is all zero), so the equivalence battery compares everything in a Result
// EXCEPT this block.
type EngineStats struct {
	// SMJobs is the parallel worker count the run used (0 for serial).
	SMJobs int
	// Epochs is the number of parallel epochs executed.
	Epochs int64
	// EpochCycles is the total number of simulated cycles covered by those
	// epochs.
	EpochCycles int64
	// SkippedCycles counts the cycles the engine jumped over between epochs
	// because no SM, memory event or NoC delivery was due in them: cycles
	// that cost no host time in any engine, so Coverage leaves them out.
	// Never serialised: API bytes and stored results predate it.
	SkippedCycles int64 `json:"-"`

	// The phase profile: where the coordinating goroutine's wall time went,
	// in nanoseconds summed over the run's epochs. PrepareNS is the serial
	// work before each fan-out (window planning and lookahead, plus any
	// serial steps and idle skips since the previous epoch), AdvanceNS the
	// coordinator's own SM block, BarrierWaitNS the wait for the other
	// workers after it, DrainNS the single-threaded barrier replay. Host
	// measurements, not results: never serialised.
	PrepareNS     int64 `json:"-"`
	AdvanceNS     int64 `json:"-"`
	BarrierWaitNS int64 `json:"-"`
	DrainNS       int64 `json:"-"`
}

// Coverage returns the fraction of the run's executed cycles that ran
// inside parallel epochs; the rest ran as serial steps. The run loop
// executes cycles 0 through totalCycles, the last being the one it ends on,
// less the idle stretches skipped between epochs. (A run stopped by
// MaxCycles never executes its last cycle, so its coverage reads one cycle
// low.)
func (e *EngineStats) Coverage(totalCycles int64) float64 {
	executed := totalCycles + 1 - e.SkippedCycles
	if executed <= 0 {
		return 0
	}
	return float64(e.EpochCycles) / float64(executed)
}

// AvgEpochCycles returns the mean epoch width in cycles.
func (e *EngineStats) AvgEpochCycles() float64 {
	if e.Epochs == 0 {
		return 0
	}
	return float64(e.EpochCycles) / float64(e.Epochs)
}
