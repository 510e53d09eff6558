package history

import (
	"domino/internal/mem"
	"domino/internal/prefetch"
)

// StreamPool opens the replay streams of a temporal prefetcher (STMS,
// Digram, Domino) over its History Table and recycles them. Every stream
// ever opened lives in states — at most the set's capacity plus one — each
// with a long-lived refill closure over its own HT cursor and its own
// one-row queue buffer, which every HT read fills in place. Opening,
// refilling and replacing streams on the hot training path therefore
// allocates nothing: no Stream, no closure, no row slice.
type StreamPool struct {
	ht      *Table
	set     *prefetch.StreamSet
	maxRows int
	states  []*pooledStream
	free    []*pooledStream
}

// pooledStream pairs a reusable Stream with the cursor its refill closure
// walks — consecutive HT rows starting at seq, bounded by left — and the
// buffer the stream's queue lives in.
type pooledStream struct {
	s      prefetch.Stream
	refill func() []mem.Line
	row    []mem.Line
	seq    uint64
	left   int
}

// NewStreamPool returns a pool that opens streams over ht into set, each
// allowed maxRefillRows HT rows beyond its first.
func NewStreamPool(ht *Table, set *prefetch.StreamSet, maxRefillRows int) *StreamPool {
	return &StreamPool{ht: ht, set: set, maxRows: maxRefillRows}
}

// Open follows an index pointer into the HT: it reads the rest of ptr's
// row (one off-chip block read) into a pooled stream's queue, chains the
// following rows as the stream's refill, and installs the stream in the
// set as MRU. The stream the set evicts to make room goes back on the free
// list. ok=false means ptr is stale (the HT wrapped past it); nothing is
// read or installed then.
func (sp *StreamPool) Open(ptr uint64) (s *prefetch.Stream, ok bool) {
	if !sp.ht.Retained(ptr) {
		return nil, false
	}
	var ps *pooledStream
	if n := len(sp.free); n > 0 {
		ps = sp.free[n-1]
		sp.free = sp.free[:n-1]
	} else {
		ps = &pooledStream{}
		ps.refill = func() []mem.Line {
			if ps.left <= 0 {
				return nil
			}
			ps.left--
			ps.row, ps.seq = sp.ht.NextRow(ps.row[:0], ps.seq)
			return ps.row
		}
		sp.states = append(sp.states, ps)
	}
	ps.row, ps.seq, _ = sp.ht.RowAfter(ps.row[:0], ptr)
	ps.left = sp.maxRows
	ps.s.Reset(ps.row, ps.refill)
	if evicted := sp.set.Insert(&ps.s); evicted != nil {
		for _, st := range sp.states {
			if &st.s == evicted {
				sp.free = append(sp.free, st)
				break
			}
		}
	}
	return &ps.s, true
}
