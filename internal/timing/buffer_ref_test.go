package timing

import "domino/internal/mem"

// refBuffer is the map-and-slice prefetch buffer the Simulator used before
// prefetchBuffer, kept as the differential reference for
// FuzzTimingBufferVsReference. Its bodies are the old Simulator code:
// consumed lines are never removed from fifo, so a stale entry can evict a
// later re-insertion of the same line, and fifo grows while the buffer is
// under capacity.
type refBuffer struct {
	buf  map[mem.Line]refEntry
	fifo []mem.Line
}

// refEntry tracks a prefetched block awaiting use.
type refEntry struct {
	readyAt uint64 // absolute cycle the block arrives
}

func newRefBuffer() *refBuffer {
	return &refBuffer{buf: make(map[mem.Line]refEntry)}
}

func (r *refBuffer) size() int { return len(r.buf) }

func (r *refBuffer) contains(line mem.Line) bool {
	_, ok := r.buf[line]
	return ok
}

func (r *refBuffer) take(line mem.Line) (uint64, bool) {
	e, ok := r.buf[line]
	if !ok {
		return 0, false
	}
	delete(r.buf, line)
	return e.readyAt, true
}

func (r *refBuffer) insert(line mem.Line, ready uint64) {
	for len(r.buf) >= bufCap {
		victim := r.fifo[0]
		r.fifo = r.fifo[1:]
		delete(r.buf, victim)
	}
	r.buf[line] = refEntry{readyAt: ready}
	r.fifo = append(r.fifo, line)
}

func (r *refBuffer) rebase(base uint64) {
	sub := func(v uint64) uint64 {
		if v > base {
			return v - base
		}
		return 0
	}
	for l, e := range r.buf {
		r.buf[l] = refEntry{readyAt: sub(e.readyAt)}
	}
}
