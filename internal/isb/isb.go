// Package isb implements the Irregular Stream Buffer (Jain & Lin,
// "Linearizing Irregular Memory Accesses for Improved Correlated
// Prefetching", MICRO 2013) in the idealised PC/AC form the paper evaluates
// (Section IV-D): PC-localised address correlation with an infinite-size
// history table and no off-chip metadata cost.
//
// For each program counter, ISB maintains the sequence of lines that missed
// under that PC (the PC-localised stream) and, on a triggering event,
// replays the lines that followed the previous occurrence of the same line
// *in that PC's own stream*. The paper uses ISB to show why PC localisation
// hurts server workloads: it breaks the strong temporal correlation of the
// global miss sequence, and it predicts the next misses of an instruction,
// which are not the next misses of the workload.
package isb

import (
	"domino/internal/flathash"
	"domino/internal/mem"
	"domino/internal/prefetch"
)

// Config parameterises ISB.
type Config struct {
	// Degree is the prefetch degree.
	Degree int
}

// DefaultConfig returns ISB at the given degree.
func DefaultConfig(degree int) Config { return Config{Degree: degree} }

// Prefetcher is the idealised PC/AC engine. Construct with New.
//
// Both metadata maps run on flathash kernels: pcs resolves a PC to its
// structural address space (a slot in hists), and last resolves a
// flathash.PackPair-folded (PC, line) key to the index of line's most
// recent occurrence in that PC's sequence. History indexes are int32 —
// a per-PC log of 2³¹ lines would need 16 GiB for the log alone, far
// beyond any trace this simulator runs.
//
// Candidates go into one scratch slice that Trigger returns, so the only
// allocations left on the trigger path are the amortised growth of the
// per-PC histories and of the two maps.
type Prefetcher struct {
	cfg Config
	// pcs maps a PC to its slot in hists.
	pcs *flathash.Map[int32]
	// hists holds the per-PC miss sequences ("structural address space"
	// in ISB's terms, idealised to append-only logs).
	hists [][]mem.Line
	// last maps the folded (pc, line) pair to the index of line's most
	// recent occurrence in that PC's sequence.
	last *flathash.Map[int32]
	out  []prefetch.Candidate
}

// New builds an ISB prefetcher.
func New(cfg Config) *Prefetcher {
	return &Prefetcher{
		cfg:  cfg,
		pcs:  flathash.New[int32](0),
		last: flathash.New[int32](0),
	}
}

// Name returns "isb".
func (p *Prefetcher) Name() string { return "isb" }

// Trigger implements prefetch.Prefetcher. The returned slice is reused by
// the next call.
func (p *Prefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	slot, ok := p.pcs.Get(uint64(ev.PC))
	if !ok {
		slot = int32(len(p.hists))
		p.hists = append(p.hists, nil)
		p.pcs.Put(uint64(ev.PC), slot)
	}
	h := p.hists[slot]
	key := flathash.PackPair(uint64(ev.PC), uint64(ev.Line))
	p.out = p.out[:0]
	if idx, ok := p.last.Get(key); ok {
		for i := int(idx) + 1; i < len(h) && len(p.out) < p.cfg.Degree; i++ {
			// Idealised on-chip metadata: no issue delay.
			p.out = append(p.out, prefetch.Candidate{Line: h[i], Tag: p.Name()})
		}
	}
	p.last.Put(key, int32(len(h)))
	p.hists[slot] = append(h, ev.Line)
	return p.out
}
