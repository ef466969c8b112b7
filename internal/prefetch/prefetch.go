// Package prefetch implements the L1 data prefetchers the APRES paper
// evaluates: STR (per-PC inter-warp stride prefetching, after Lee et al.
// MICRO 2010 and Sethia et al. PACT 2013), SLD (spatial-locality-detection
// macro-block prefetching, after Jog et al. ISCA 2013), and the paper's
// contribution SAP (Scheduling Aware Prefetching), which generates
// per-warp-targeted prefetches for a LAWS warp group when the group's head
// warp misses.
package prefetch

import (
	"fmt"

	"apres/internal/arch"
	"apres/internal/config"
)

// Request is one prefetch the SM should inject into the L1.
type Request struct {
	// Addr is the predicted address.
	Addr arch.Addr
	// Warp is the warp the line is prefetched for; LAWS prioritises it
	// under APRES. For warp-agnostic prefetchers it is the triggering
	// warp.
	Warp arch.WarpID
	// PC is the static load the prediction came from.
	PC arch.PC
}

// Prefetcher reacts to demand accesses with prefetch requests.
type Prefetcher interface {
	// Name identifies the policy.
	Name() string
	// OnAccess observes a demand load (lead line address after
	// coalescing) and returns prefetches to inject. wid is the logical
	// warp ID (used for inter-warp stride arithmetic); slot the hardware
	// warp slot (used to attribute the returned requests). The returned
	// slice may be reused by the next call: consume it before calling
	// again (the core copies it into its prefetch queue at once).
	OnAccess(pc arch.PC, wid, slot arch.WarpID, addr arch.Addr, hit bool) []Request
}

// New builds the prefetcher selected by the configuration, or nil for
// config.PrefNone. SAP is constructed via NewSAP directly by the core so it
// can be coupled to LAWS.
func New(cfg config.Config) (Prefetcher, error) {
	switch cfg.Prefetcher {
	case config.PrefNone:
		return nil, nil
	case config.PrefSTR:
		return NewSTR(16, 2), nil
	case config.PrefSLD:
		return NewSLD(64), nil
	case config.PrefSAP:
		return NewSAP(cfg.SAPPTEntries, cfg.SAPDRQEntries, cfg.SAPStrideGate), nil
	default:
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q", cfg.Prefetcher)
	}
}

// strEntry is one prefetch-table row of STR: last observed warp/address per
// PC plus the stride between the two most recent observations.
type strEntry struct {
	pc       arch.PC
	lastWarp arch.WarpID
	lastAddr arch.Addr
	stride   int64
	strideOK bool // stride confirmed by two consecutive observations
	lastUse  int64
}

// STR is per-PC inter-warp stride prefetching: on each demand load it
// computes the warp-ID-normalised stride against the previous observation
// of the same PC, and once the stride repeats it prefetches the next
// warps' predicted lines.
type STR struct {
	entries []strEntry
	degree  int
	tick    int64
	reqs    []Request // OnAccess's result buffer, reused across calls
}

// NewSTR builds an STR prefetcher with the given table size and prefetch
// degree (lines ahead).
func NewSTR(tableEntries, degree int) *STR {
	if tableEntries <= 0 {
		tableEntries = 16
	}
	if degree <= 0 {
		degree = 1
	}
	return &STR{entries: make([]strEntry, tableEntries), degree: degree}
}

// Name implements Prefetcher.
func (p *STR) Name() string { return "str" }

// OnAccess implements Prefetcher.
func (p *STR) OnAccess(pc arch.PC, wid, slot arch.WarpID, addr arch.Addr, hit bool) []Request {
	p.tick++
	e := p.lookup(pc)
	if e == nil {
		e = p.victim()
		*e = strEntry{pc: pc, lastWarp: wid, lastAddr: addr, lastUse: p.tick}
		return nil
	}
	e.lastUse = p.tick
	dw := int64(wid) - int64(e.lastWarp)
	if dw == 0 {
		// Same warp re-executing the load; keep the base address fresh
		// but do not recompute an inter-warp stride.
		e.lastAddr = addr
		return nil
	}
	stride := (int64(addr) - int64(e.lastAddr)) / dw
	if stride == e.stride {
		e.strideOK = true
	} else {
		e.stride = stride
		e.strideOK = false
	}
	e.lastWarp = wid
	e.lastAddr = addr
	if !e.strideOK || stride == 0 {
		return nil
	}
	p.reqs = p.reqs[:0]
	for k := 1; k <= p.degree; k++ {
		a := int64(addr) + stride*int64(k)
		if a < 0 {
			continue
		}
		p.reqs = append(p.reqs, Request{Addr: arch.Addr(a), Warp: slot, PC: pc})
	}
	return p.reqs
}

func (p *STR) lookup(pc arch.PC) *strEntry {
	for i := range p.entries {
		if p.entries[i].pc == pc && p.entries[i].lastUse != 0 {
			return &p.entries[i]
		}
	}
	return nil
}

func (p *STR) victim() *strEntry {
	v := &p.entries[0]
	for i := range p.entries {
		if p.entries[i].lastUse < v.lastUse {
			v = &p.entries[i]
		}
	}
	return v
}

// macroBlockLines is the SLD macro-block size in cache lines (four
// consecutive lines, Section III.C).
const macroBlockLines = 4

// SLD is macro-block prefetching: it tracks which of the four lines of each
// 512 B macro block have been demanded, and once two are touched it
// prefetches the remaining two.
type SLD struct {
	// blocks maps macro-block base line -> touched-line bitmask.
	blocks map[arch.LineAddr]uint8
	// fired marks blocks already prefetched, to avoid re-firing.
	fired map[arch.LineAddr]bool
	max   int
}

// NewSLD builds an SLD prefetcher tracking up to maxBlocks macro blocks.
func NewSLD(maxBlocks int) *SLD {
	if maxBlocks <= 0 {
		maxBlocks = 64
	}
	return &SLD{
		blocks: make(map[arch.LineAddr]uint8),
		fired:  make(map[arch.LineAddr]bool),
		max:    maxBlocks,
	}
}

// Name implements Prefetcher.
func (p *SLD) Name() string { return "sld" }

// OnAccess implements Prefetcher.
func (p *SLD) OnAccess(pc arch.PC, wid, slot arch.WarpID, addr arch.Addr, hit bool) []Request {
	line := addr.Line()
	base := line &^ (macroBlockLines - 1)
	if p.fired[base] {
		return nil
	}
	if _, ok := p.blocks[base]; !ok && len(p.blocks) >= p.max {
		// Simple capacity control: forget everything; SLD state is
		// advisory only.
		p.blocks = make(map[arch.LineAddr]uint8)
	}
	p.blocks[base] |= 1 << uint(line-base)
	touched := p.blocks[base]
	if popcount4(touched) < 2 {
		return nil
	}
	p.fired[base] = true
	if len(p.fired) > 4*p.max {
		p.fired = map[arch.LineAddr]bool{base: true}
	}
	delete(p.blocks, base)
	var reqs []Request
	for i := arch.LineAddr(0); i < macroBlockLines; i++ {
		if touched&(1<<uint(i)) == 0 {
			reqs = append(reqs, Request{Addr: (base + i).Addr(), Warp: slot, PC: pc})
		}
	}
	return reqs
}

func popcount4(b uint8) int {
	n := 0
	for b != 0 {
		b &= b - 1
		n++
	}
	return n
}
