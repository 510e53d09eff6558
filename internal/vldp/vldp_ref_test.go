package vldp

import (
	"domino/internal/mem"
	"domino/internal/prefetch"
)

// refDHBEntry tracks the delta history of one page.
type refDHBEntry struct {
	page        mem.Page
	lastOffset  int
	deltas      []int // most recent first, at most MaxHistory
	firstOffset int
	sawSecond   bool
}

// refDPTKey encodes up to three deltas; deltas are never zero, so unused
// positions are unambiguously zero.
type refDPTKey [3]int16

// refPrefetcher is the allocating VLDP this package used before its
// fixed-size delta histories, recycled DHB entries, flat DPT and scratch
// candidate slice, kept as the differential reference for
// TestVLDPMatchesReference. Its bodies are the old Prefetcher code.
type refPrefetcher struct {
	cfg Config
	dhb []*refDHBEntry // MRU order
	opt []predEntry
	ovd []bool // opt entry valid
	dpt []map[refDPTKey]*predEntry
}

func newRefPrefetcher(cfg Config) *refPrefetcher {
	if cfg.MaxHistory <= 0 || cfg.MaxHistory > 3 {
		cfg.MaxHistory = 3
	}
	if cfg.OPTEntries <= 0 {
		cfg.OPTEntries = mem.LinesPerPage
	}
	p := &refPrefetcher{
		cfg: cfg,
		opt: make([]predEntry, cfg.OPTEntries),
		ovd: make([]bool, cfg.OPTEntries),
		dpt: make([]map[refDPTKey]*predEntry, cfg.MaxHistory),
	}
	for i := range p.dpt {
		p.dpt[i] = make(map[refDPTKey]*predEntry)
	}
	return p
}

// Name returns "vldp".
func (p *refPrefetcher) Name() string { return "vldp" }

// Trigger implements prefetch.Prefetcher.
func (p *refPrefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	page := ev.Line.Page()
	off := ev.Line.PageOffset()

	e := p.lookupDHB(page)
	if e == nil {
		e = p.allocDHB(page, off)
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
	p.trainDPTs(e.deltas, delta)
	// Push the new delta and predict ahead, chaining predictions.
	e.deltas = refPushDelta(e.deltas, delta, p.cfg.MaxHistory)
	e.lastOffset = off

	hist := append([]int(nil), e.deltas...)
	cur := off
	var out []prefetch.Candidate
	for len(out) < p.cfg.Degree {
		d, ok := p.predictFromDPTs(hist)
		if !ok {
			break
		}
		cur += d
		if cur < 0 || cur >= mem.LinesPerPage {
			break
		}
		out = append(out, prefetch.Candidate{Line: page.LineAt(cur), Tag: p.Name()})
		hist = refPushDelta(hist, d, p.cfg.MaxHistory)
	}
	return out
}

func refPushDelta(hist []int, d, max int) []int {
	hist = append([]int{d}, hist...)
	if len(hist) > max {
		hist = hist[:max]
	}
	return hist
}

func (p *refPrefetcher) lookupDHB(page mem.Page) *refDHBEntry {
	for i, e := range p.dhb {
		if e.page == page {
			copy(p.dhb[1:i+1], p.dhb[:i])
			p.dhb[0] = e
			return e
		}
	}
	return nil
}

func (p *refPrefetcher) allocDHB(page mem.Page, off int) *refDHBEntry {
	e := &refDHBEntry{page: page, lastOffset: off, firstOffset: off}
	if len(p.dhb) >= p.cfg.DHBEntries {
		p.dhb = p.dhb[:p.cfg.DHBEntries-1]
	}
	p.dhb = append([]*refDHBEntry{e}, p.dhb...)
	return e
}

func (p *refPrefetcher) predictFromOPT(page mem.Page, off int) []prefetch.Candidate {
	if off >= len(p.opt) || !p.ovd[off] || !p.opt[off].acc {
		return nil
	}
	target := off + p.opt[off].delta
	if target < 0 || target >= mem.LinesPerPage {
		return nil
	}
	return []prefetch.Candidate{{Line: page.LineAt(target), Tag: p.Name()}}
}

func (p *refPrefetcher) trainOPT(firstOff, delta int) {
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

func refKeyOf(hist []int, n int) refDPTKey {
	var k refDPTKey
	for i := 0; i < n; i++ {
		k[i] = int16(hist[i])
	}
	return k
}

func (p *refPrefetcher) trainDPTs(prevHist []int, delta int) {
	for n := 1; n <= len(prevHist) && n <= p.cfg.MaxHistory; n++ {
		k := refKeyOf(prevHist, n)
		tbl := p.dpt[n-1]
		e, ok := tbl[k]
		switch {
		case !ok:
			tbl[k] = &predEntry{delta: delta, acc: true}
		case e.delta == delta:
			e.acc = true
		case e.acc:
			e.acc = false
		default:
			e.delta = delta
			e.acc = true
		}
	}
}

// predictFromDPTs consults the DPTs from the longest available history
// down, returning the first match (longer histories take precedence even
// over more accurate shorter ones, per MICRO'15).
func (p *refPrefetcher) predictFromDPTs(hist []int) (int, bool) {
	for n := min(len(hist), p.cfg.MaxHistory); n >= 1; n-- {
		if e, ok := p.dpt[n-1][refKeyOf(hist, n)]; ok {
			return e.delta, true
		}
	}
	return 0, false
}
