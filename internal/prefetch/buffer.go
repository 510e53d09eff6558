package prefetch

import (
	"domino/internal/mem"
)

// Buffer is the small prefetch buffer near the L1-D that every evaluated
// prefetcher prefetches into (32 cache blocks in the paper's methodology).
// Blocks leave the buffer either by being consumed by a demand access (a
// covered miss) or by being displaced by newer prefetches; displaced blocks
// that were never consumed are overpredictions.
//
// Replacement is FIFO: the buffer is a window over the most recently
// prefetched blocks, which is how a hardware prefetch buffer of this size
// behaves and what makes overpredictions visible as pollution.
//
// Storage is three fixed arrays of capacity length — line, issuer tag and
// insertion sequence number — whose first n slots hold the resident blocks
// in no particular order. Lookups scan them linearly, which at the paper's
// 32 blocks is cheaper than hashing; a removal moves the last resident
// block into the hole; eviction takes the resident block with the smallest
// sequence number, the oldest insertion. Nothing is allocated after
// NewBuffer.
type Buffer struct {
	lines []mem.Line
	tags  []string
	seqs  []uint64
	n     int    // resident blocks: slots [0, n)
	next  uint64 // sequence number of the next insertion

	issued  uint64
	used    uint64
	dropped uint64 // evicted before use

	// onEvict, if set, observes each line dropped before use — capacity
	// displacements and explicit invalidations — for decision tracing.
	onEvict func(mem.Line)
}

// NewBuffer returns a buffer holding up to capacity blocks.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Buffer{
		lines: make([]mem.Line, capacity),
		tags:  make([]string, capacity),
		seqs:  make([]uint64, capacity),
	}
}

// find returns the slot holding line, or -1.
func (b *Buffer) find(line mem.Line) int {
	for i, l := range b.lines[:b.n] {
		if l == line {
			return i
		}
	}
	return -1
}

// remove empties slot i by moving the last resident block into it.
func (b *Buffer) remove(i int) {
	b.n--
	b.lines[i], b.tags[i], b.seqs[i] = b.lines[b.n], b.tags[b.n], b.seqs[b.n]
	b.tags[b.n] = ""
}

// Contains reports whether line is buffered.
func (b *Buffer) Contains(line mem.Line) bool { return b.find(line) >= 0 }

// Len returns the number of buffered blocks.
func (b *Buffer) Len() int { return b.n }

// Insert adds a prefetched line with its issuer tag. Inserting a line that
// is already buffered refreshes nothing and is not counted again; the
// evaluator filters those before issuing, so a duplicate insert indicates a
// prefetcher issuing redundant candidates within one Trigger call — they
// are simply ignored. Insert reports whether the line was newly added.
func (b *Buffer) Insert(line mem.Line, tag string) bool {
	if b.find(line) >= 0 {
		return false
	}
	if b.n == len(b.lines) {
		b.evictOldest()
	}
	b.lines[b.n], b.tags[b.n], b.seqs[b.n] = line, tag, b.next
	b.n++
	b.next++
	b.issued++
	return true
}

// evictOldest displaces the resident block inserted first.
func (b *Buffer) evictOldest() {
	oldest := 0
	for i, s := range b.seqs[:b.n] {
		if s < b.seqs[oldest] {
			oldest = i
		}
	}
	line := b.lines[oldest]
	b.remove(oldest)
	b.dropped++
	if b.onEvict != nil {
		b.onEvict(line)
	}
}

// OnEvict registers f to observe every line dropped before use. Pass nil
// to disable.
func (b *Buffer) OnEvict(f func(mem.Line)) { b.onEvict = f }

// Consume looks up line; on a hit it removes the block (it moves into the
// L1-D) and returns its issuer tag and true.
func (b *Buffer) Consume(line mem.Line) (tag string, ok bool) {
	i := b.find(line)
	if i < 0 {
		return "", false
	}
	tag = b.tags[i]
	b.remove(i)
	b.used++
	return tag, true
}

// Invalidate removes line without counting it as used or dropped-unused
// beyond the drop counter; used when a prefetcher explicitly discards a
// replaced stream's blocks.
func (b *Buffer) Invalidate(line mem.Line) bool {
	i := b.find(line)
	if i < 0 {
		return false
	}
	b.remove(i)
	b.dropped++
	if b.onEvict != nil {
		b.onEvict(line)
	}
	return true
}

// Issued returns the number of prefetches inserted.
func (b *Buffer) Issued() uint64 { return b.issued }

// Used returns the number of buffered blocks consumed by demand accesses.
func (b *Buffer) Used() uint64 { return b.used }

// Dropped returns the number of blocks evicted or invalidated before use.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// ResetCounters zeroes the issue/use/drop statistics without touching the
// buffered blocks, for measurements that begin after a warmup phase.
func (b *Buffer) ResetCounters() { b.issued, b.used, b.dropped = 0, 0, 0 }

// Unused returns the prefetches that never served a demand access:
// dropped blocks plus blocks still resident. This is the overprediction
// count at the end of a run.
func (b *Buffer) Unused() uint64 {
	return b.dropped + uint64(b.n)
}
