package timing

import (
	"math/bits"

	"domino/internal/mem"
)

// bufCap is the capacity of the timing model's prefetch buffer in blocks,
// the paper's 32-entry buffer.
const bufCap = 32

// The buffer's line index has bufIndexSize positions: a power of two at
// twice bufCap, so the index is at most half full and probe runs are short.
const (
	bufIndexBits = 6
	bufIndexSize = 1 << bufIndexBits
)

// prefetchBuffer holds the prefetched blocks the timing model is waiting
// on, each with the absolute cycle it arrives.
//
// Blocks live in fixed (line, readyAt) arrays of bufCap slots; a bitmask
// marks the occupied slots, and a slot keeps its block until the block
// leaves. A small open-addressed index maps a line to its slot (linear
// probing, deletion by backward shift), so a lookup costs a multiply and
// a probe or two instead of a scan of every slot. Nothing is allocated
// after the FIFO ring reaches its working size.
//
// Eviction order comes from fifo, a ring of every inserted line in
// insertion order. Taking a block leaves its line in the ring. Such a
// stale entry evicts nothing when it reaches the head, unless the same
// line has been inserted again since, in which case it evicts that newer
// block early; and the ring grows while the buffer is under capacity,
// with no bound in principle. Fig. 14's numbers depend on this, so it is
// kept; EXPERIMENTS.md (known deviation 5) records how often it happens.
type prefetchBuffer struct {
	lines [bufCap]mem.Line
	ready [bufCap]uint64
	live  uint32              // bit i set: slot i holds a block
	index [bufIndexSize]uint8 // slot+1 of a line at its probe position; 0 empty

	fifo  []mem.Line // ring of inserted lines, oldest at fhead
	fhead int
	flen  int
}

// The live mask has one bit per slot, and the index is twice the slots.
var (
	_ = [32 - bufCap]struct{}{}
	_ = [bufIndexSize - 2*bufCap]struct{}{}
)

// home returns line's first probe position in the index (Fibonacci
// hashing: the top bits of a multiplicative hash).
func home(line mem.Line) int {
	return int(uint64(line) * 0x9E3779B97F4A7C15 >> (64 - bufIndexBits))
}

// lookup returns the index position holding line and its slot, or the
// empty position where line's probe sequence ends and slot -1.
func (b *prefetchBuffer) lookup(line mem.Line) (pos, slot int) {
	for pos = home(line); ; pos = (pos + 1) & (bufIndexSize - 1) {
		s := int(b.index[pos])
		if s == 0 {
			return pos, -1
		}
		if b.lines[s-1] == line {
			return pos, s - 1
		}
	}
}

// size returns the number of buffered blocks.
func (b *prefetchBuffer) size() int { return bits.OnesCount32(b.live) }

// contains reports whether line is buffered.
func (b *prefetchBuffer) contains(line mem.Line) bool {
	_, slot := b.lookup(line)
	return slot >= 0
}

// take removes line's block, reporting its arrival cycle and whether the
// line was buffered. The line's FIFO entry stays behind.
func (b *prefetchBuffer) take(line mem.Line) (readyAt uint64, ok bool) {
	pos, slot := b.lookup(line)
	if slot < 0 {
		return 0, false
	}
	readyAt = b.ready[slot]
	b.remove(pos, slot)
	return readyAt, true
}

// remove frees slot, whose line sits at index position pos, and closes
// the gap in the index by shifting later entries of the probe run back.
func (b *prefetchBuffer) remove(pos, slot int) {
	b.live &^= 1 << slot
	const mask = bufIndexSize - 1
	for {
		b.index[pos] = 0
		next := pos
		for {
			next = (next + 1) & mask
			s := b.index[next]
			if s == 0 {
				return
			}
			// The entry at next may fill the hole at pos unless its
			// home lies cyclically in (pos, next].
			if (next-home(b.lines[s-1]))&mask >= (next-pos)&mask {
				b.index[pos] = s
				pos = next
				break
			}
		}
	}
}

// insert buffers line, arriving at readyAt, which the caller has checked
// is not buffered. While the buffer is full it pops the FIFO head and
// evicts that line's block if one is buffered.
func (b *prefetchBuffer) insert(line mem.Line, readyAt uint64) {
	for b.size() >= bufCap {
		victim := b.fifo[b.fhead]
		b.fhead = (b.fhead + 1) & (len(b.fifo) - 1)
		b.flen--
		if pos, slot := b.lookup(victim); slot >= 0 {
			b.remove(pos, slot)
		}
	}
	slot := bits.TrailingZeros32(^b.live)
	b.live |= 1 << slot
	b.lines[slot], b.ready[slot] = line, readyAt
	pos, _ := b.lookup(line)
	b.index[pos] = uint8(slot + 1)
	b.push(line)
}

// push appends line to the FIFO ring, doubling the ring when it is full;
// the ring's length is always a power of two.
func (b *prefetchBuffer) push(line mem.Line) {
	if b.flen == len(b.fifo) {
		grown := make([]mem.Line, max(2*len(b.fifo), 2*bufCap))
		n := copy(grown, b.fifo[b.fhead:])
		copy(grown[n:], b.fifo[:b.fhead])
		b.fifo, b.fhead = grown, 0
	}
	b.fifo[(b.fhead+b.flen)&(len(b.fifo)-1)] = line
	b.flen++
}

// rebase moves every buffered block's arrival cycle base cycles earlier,
// clamping at zero, for a measurement that restarts the clock.
func (b *prefetchBuffer) rebase(base uint64) {
	for live := b.live; live != 0; live &= live - 1 {
		i := bits.TrailingZeros32(live)
		if b.ready[i] > base {
			b.ready[i] -= base
		} else {
			b.ready[i] = 0
		}
	}
}
