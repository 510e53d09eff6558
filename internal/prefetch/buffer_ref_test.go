package prefetch

import (
	"domino/internal/mem"
)

// refBuffer is the map-and-fifo prefetch buffer the flat Buffer replaced,
// kept as the differential reference for FuzzBufferVsReference and the
// "/Map" side of the buffer benchmarks: a map from line to *refBufEntry
// plus an insertion-order fifo of entries, with consumed and invalidated
// entries left behind as gone markers and compacted lazily.
type refBuffer struct {
	capacity int
	entries  map[mem.Line]*refBufEntry
	fifo     []*refBufEntry // insertion order; head at index 0
	gone     int            // entries in fifo already consumed or invalidated

	issued  uint64
	used    uint64
	dropped uint64 // evicted before use

	// onEvict, if set, observes each line dropped before use — capacity
	// displacements and explicit invalidations — for decision tracing.
	onEvict func(mem.Line)
}

type refBufEntry struct {
	line mem.Line
	tag  string
	gone bool // consumed or evicted; kept in fifo until popped
}

// newRefBuffer returns a buffer holding up to capacity blocks.
func newRefBuffer(capacity int) *refBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &refBuffer{
		capacity: capacity,
		entries:  make(map[mem.Line]*refBufEntry, capacity),
	}
}

// Contains reports whether line is buffered.
func (b *refBuffer) Contains(line mem.Line) bool {
	_, ok := b.entries[line]
	return ok
}

// Len returns the number of buffered blocks.
func (b *refBuffer) Len() int { return len(b.entries) }

// Insert adds a prefetched line with its issuer tag. Inserting a line that
// is already buffered refreshes nothing and is not counted again; the
// evaluator filters those before issuing, so a duplicate insert indicates a
// prefetcher issuing redundant candidates within one Trigger call — they
// are simply ignored. Insert reports whether the line was newly added.
func (b *refBuffer) Insert(line mem.Line, tag string) bool {
	if _, ok := b.entries[line]; ok {
		return false
	}
	for len(b.entries) >= b.capacity {
		b.evictOldest()
	}
	e := &refBufEntry{line: line, tag: tag}
	b.entries[line] = e
	b.fifo = append(b.fifo, e)
	b.issued++
	return true
}

func (b *refBuffer) evictOldest() {
	for len(b.fifo) > 0 {
		e := b.fifo[0]
		b.fifo[0] = nil
		b.fifo = b.fifo[1:]
		if e.gone {
			b.gone--
			continue
		}
		delete(b.entries, e.line)
		e.gone = true
		b.dropped++
		if b.onEvict != nil {
			b.onEvict(e.line)
		}
		return
	}
}

// compact drops gone markers from the fifo once they outnumber the
// capacity. Without it, gone entries are only drained by evictOldest —
// which runs only when the buffer is full — so a high-accuracy prefetcher
// whose blocks are consumed before the buffer ever fills would grow the
// fifo by one retained *refBufEntry per consumed prefetch, without bound.
// Compacting keeps len(fifo) <= len(entries) + capacity, i.e. O(capacity),
// while preserving the relative insertion order of live entries.
func (b *refBuffer) compact() {
	if b.gone <= b.capacity {
		return
	}
	kept := b.fifo[:0]
	for _, e := range b.fifo {
		if !e.gone {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(b.fifo); i++ {
		b.fifo[i] = nil
	}
	b.fifo = kept
	b.gone = 0
}

// OnEvict registers f to observe every line dropped before use. Pass nil
// to disable.
func (b *refBuffer) OnEvict(f func(mem.Line)) { b.onEvict = f }

// Consume looks up line; on a hit it removes the block (it moves into the
// L1-D) and returns its issuer tag and true.
func (b *refBuffer) Consume(line mem.Line) (tag string, ok bool) {
	e, ok := b.entries[line]
	if !ok {
		return "", false
	}
	delete(b.entries, line)
	e.gone = true
	b.gone++
	b.compact()
	b.used++
	return e.tag, true
}

// Invalidate removes line without counting it as used or dropped-unused
// beyond the drop counter; used when a prefetcher explicitly discards a
// replaced stream's blocks.
func (b *refBuffer) Invalidate(line mem.Line) bool {
	e, ok := b.entries[line]
	if !ok {
		return false
	}
	delete(b.entries, line)
	e.gone = true
	b.gone++
	b.compact()
	b.dropped++
	if b.onEvict != nil {
		b.onEvict(line)
	}
	return true
}

// Issued returns the number of prefetches inserted.
func (b *refBuffer) Issued() uint64 { return b.issued }

// Used returns the number of buffered blocks consumed by demand accesses.
func (b *refBuffer) Used() uint64 { return b.used }

// Dropped returns the number of blocks evicted or invalidated before use.
func (b *refBuffer) Dropped() uint64 { return b.dropped }

// ResetCounters zeroes the issue/use/drop statistics without touching the
// buffered blocks, for measurements that begin after a warmup phase.
func (b *refBuffer) ResetCounters() { b.issued, b.used, b.dropped = 0, 0, 0 }

// Unused returns the prefetches that never served a demand access:
// dropped blocks plus blocks still resident. This is the overprediction
// count at the end of a run.
func (b *refBuffer) Unused() uint64 {
	return b.dropped + uint64(len(b.entries))
}
