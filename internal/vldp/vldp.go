// Package vldp implements the Variable Length Delta Prefetcher (Shevgoor
// et al., "Efficiently Prefetching Complex Address Patterns", MICRO 2015),
// the spatial baseline of the paper's evaluation. VLDP predicts the next
// cache line *within a page* from the sequence of recent deltas (offset
// differences) observed in that page, preferring predictions keyed by
// longer delta histories.
//
// Per Section IV-D of the Domino paper, the evaluated configuration has a
// 16-entry Delta History Buffer (DHB), a 64-entry Offset Prediction Table
// (OPT), and three infinite-size Delta Prediction Tables (DPTs) keyed by
// the last one, two and three deltas. With degree > 1, VLDP feeds its own
// predictions back into the tables to predict further ahead, which the
// paper notes is inaccurate for server workloads.
package vldp

import (
	"domino/internal/flathash"
	"domino/internal/mem"
	"domino/internal/prefetch"
)

// Config parameterises VLDP.
type Config struct {
	// Degree is the prefetch degree.
	Degree int
	// DHBEntries is the number of pages tracked concurrently (16).
	DHBEntries int
	// OPTEntries is the offset-prediction table size (64, one entry per
	// possible first offset of a 64-line page).
	OPTEntries int
	// MaxHistory is the number of DPT levels (3).
	MaxHistory int
}

// DefaultConfig returns the paper's VLDP configuration.
func DefaultConfig(degree int) Config {
	return Config{Degree: degree, DHBEntries: 16, OPTEntries: mem.LinesPerPage, MaxHistory: 3}
}

// dhbEntry tracks the delta history of one page.
type dhbEntry struct {
	page        mem.Page
	lastOffset  int
	deltas      deltaHistory
	firstOffset int
	sawSecond   bool
}

// deltaHistory holds a page's most recent deltas, most recent first: d[:n]
// with n at most MaxHistory, which is at most 3.
type deltaHistory struct {
	d [3]int
	n int
}

// push prepends delta, dropping the oldest delta beyond max.
func (h *deltaHistory) push(delta, max int) {
	h.d[2], h.d[1], h.d[0] = h.d[1], h.d[0], delta
	if h.n < max {
		h.n++
	}
}

// key encodes the n most recent deltas as one DPT key, 16 bits per delta.
// Deltas lie in (-64, 64) and are never zero, so a key is non-zero, unused
// positions are unambiguously zero, and histories of different lengths
// never share a key.
func (h *deltaHistory) key(n int) uint64 {
	var k uint64
	for i := 0; i < n; i++ {
		k |= uint64(uint16(int16(h.d[i]))) << (16 * i)
	}
	return k
}

// predEntry is a DPT/OPT prediction with a one-bit accuracy state: a
// mispredicting entry first loses its accuracy bit, then is replaced on the
// next mismatch (the MICRO'15 update rule).
type predEntry struct {
	delta int
	acc   bool
}

// pack stores e in one DPT value: the delta shifted left by one, the
// accuracy bit in bit 0.
func (e predEntry) pack() int32 {
	v := int32(e.delta) << 1
	if e.acc {
		v |= 1
	}
	return v
}

func unpack(v int32) predEntry { return predEntry{delta: int(v >> 1), acc: v&1 != 0} }

// Prefetcher is the VLDP engine. Construct with New.
//
// The per-trigger path allocates nothing in steady state: DHB entries live
// in a fixed pool and a new page takes over the LRU entry, delta histories
// are fixed arrays, the three DPTs share one flathash map holding packed
// entries (their keys never collide, see deltaHistory.key), and candidates
// go into one scratch slice that Trigger returns. Only the infinite DPTs'
// growth allocates, amortised.
type Prefetcher struct {
	cfg  Config
	dhb  []*dhbEntry // MRU order, pointing into pool
	pool []dhbEntry
	opt  []predEntry
	ovd  []bool               // opt entry valid
	dpt  *flathash.Map[int32] // deltaHistory.key -> predEntry.pack
	out  []prefetch.Candidate
}

// New builds a VLDP prefetcher.
func New(cfg Config) *Prefetcher {
	if cfg.MaxHistory <= 0 || cfg.MaxHistory > 3 {
		cfg.MaxHistory = 3
	}
	if cfg.OPTEntries <= 0 {
		cfg.OPTEntries = mem.LinesPerPage
	}
	return &Prefetcher{
		cfg:  cfg,
		dhb:  make([]*dhbEntry, 0, cfg.DHBEntries),
		pool: make([]dhbEntry, cfg.DHBEntries),
		opt:  make([]predEntry, cfg.OPTEntries),
		ovd:  make([]bool, cfg.OPTEntries),
		dpt:  flathash.New[int32](0),
	}
}

// Name returns "vldp".
func (p *Prefetcher) Name() string { return "vldp" }

// Trigger implements prefetch.Prefetcher. The returned slice is reused by
// the next call.
func (p *Prefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	page := ev.Line.Page()
	off := ev.Line.PageOffset()
	p.out = p.out[:0]

	e := p.lookupDHB(page)
	if e == nil {
		p.allocDHB(page, off)
		// First access to the page: only the OPT can predict.
		return p.predictFromOPT(page, off)
	}

	delta := off - e.lastOffset
	if delta == 0 {
		return nil
	}
	// Train the OPT with the page's first-to-second delta.
	if !e.sawSecond {
		e.sawSecond = true
		p.trainOPT(e.firstOffset, delta)
	}
	// Train the DPTs: previous histories of each length predict delta.
	p.trainDPTs(&e.deltas, delta)
	// Push the new delta and predict ahead, chaining predictions.
	e.deltas.push(delta, p.cfg.MaxHistory)
	e.lastOffset = off

	hist := e.deltas
	cur := off
	for len(p.out) < p.cfg.Degree {
		d, ok := p.predictFromDPTs(&hist)
		if !ok {
			break
		}
		cur += d
		if cur < 0 || cur >= mem.LinesPerPage {
			break
		}
		p.out = append(p.out, prefetch.Candidate{Line: page.LineAt(cur), Tag: p.Name()})
		hist.push(d, p.cfg.MaxHistory)
	}
	return p.out
}

func (p *Prefetcher) lookupDHB(page mem.Page) *dhbEntry {
	for i, e := range p.dhb {
		if e.page == page {
			copy(p.dhb[1:i+1], p.dhb[:i])
			p.dhb[0] = e
			return e
		}
	}
	return nil
}

// allocDHB installs page as the MRU entry, taking a fresh pool entry
// until the DHB is full and the LRU entry after that.
func (p *Prefetcher) allocDHB(page mem.Page, off int) {
	var e *dhbEntry
	if n := len(p.dhb); n < p.cfg.DHBEntries {
		e = &p.pool[n]
		p.dhb = append(p.dhb, nil)
	} else {
		e = p.dhb[n-1]
	}
	copy(p.dhb[1:], p.dhb[:len(p.dhb)-1])
	p.dhb[0] = e
	*e = dhbEntry{page: page, lastOffset: off, firstOffset: off}
}

func (p *Prefetcher) predictFromOPT(page mem.Page, off int) []prefetch.Candidate {
	if off >= len(p.opt) || !p.ovd[off] || !p.opt[off].acc {
		return nil
	}
	target := off + p.opt[off].delta
	if target < 0 || target >= mem.LinesPerPage {
		return nil
	}
	p.out = append(p.out, prefetch.Candidate{Line: page.LineAt(target), Tag: p.Name()})
	return p.out
}

func (p *Prefetcher) trainOPT(firstOff, delta int) {
	if firstOff >= len(p.opt) {
		return
	}
	e := &p.opt[firstOff]
	switch {
	case !p.ovd[firstOff]:
		p.ovd[firstOff] = true
		*e = predEntry{delta: delta, acc: true}
	case e.delta == delta:
		e.acc = true
	case e.acc:
		e.acc = false
	default:
		*e = predEntry{delta: delta, acc: true}
	}
}

func (p *Prefetcher) trainDPTs(prev *deltaHistory, delta int) {
	for n := 1; n <= prev.n; n++ {
		k := prev.key(n)
		v, ok := p.dpt.Get(k)
		e := unpack(v)
		switch {
		case !ok:
			e = predEntry{delta: delta, acc: true}
		case e.delta == delta:
			if e.acc {
				continue
			}
			e.acc = true
		case e.acc:
			e.acc = false
		default:
			e.delta = delta
			e.acc = true
		}
		p.dpt.Put(k, e.pack())
	}
}

// predictFromDPTs consults the DPTs from the longest available history
// down, returning the first match (longer histories take precedence even
// over more accurate shorter ones, per MICRO'15).
func (p *Prefetcher) predictFromDPTs(hist *deltaHistory) (int, bool) {
	for n := hist.n; n >= 1; n-- {
		if v, ok := p.dpt.Get(hist.key(n)); ok {
			return unpack(v).delta, true
		}
	}
	return 0, false
}
