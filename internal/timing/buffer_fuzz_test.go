package timing

import (
	"testing"

	"domino/internal/mem"
)

// bufferContents returns the flat buffer's blocks as line -> arrival cycle.
func bufferContents(b *prefetchBuffer) map[mem.Line]uint64 {
	out := make(map[mem.Line]uint64)
	for i := 0; i < bufCap; i++ {
		if b.live&(1<<i) != 0 {
			out[b.lines[i]] = b.ready[i]
		}
	}
	return out
}

// FuzzTimingBufferVsReference drives prefetchBuffer and the map-and-slice
// reference (buffer_ref_test.go) through the same operation sequence, as
// the Simulator drives them, and after every operation requires identical
// results, identical contents (line and arrival cycle of every block, so
// every eviction, early ones included, must match) and an identical FIFO
// length (stale entries of consumed lines included). Lines come from a
// 48-line space, half again the capacity, so the buffer fills, evicts and
// re-inserts consumed lines densely. Each byte pair is one operation:
//
//	op%8 ∈ {0,1,2,3}  insert(line, readyAt) unless contains(line), as
//	                  insertPrefetch does; readyAt grows with the
//	                  operation index
//	op%8 ∈ {4,5}      take(line)
//	op%8 = 6          contains(line)
//	op%8 = 7          rebase(4 * byte)
func FuzzTimingBufferVsReference(f *testing.F) {
	// Fill, consume line 0, re-insert it, then one more insert: the stale
	// FIFO entry of the consumed line 0 evicts its re-insertion.
	var stale []byte
	for l := byte(0); l < bufCap; l++ {
		stale = append(stale, 0, l)
	}
	stale = append(stale, 4, 0, 0, 0, 0, 40, 6, 0, 6, 40)
	f.Add(stale)
	// Insert and consume the same few lines: the buffer stays nearly
	// empty while the FIFO grows past its first ring size.
	var grow []byte
	for i := byte(0); i < 80; i++ {
		grow = append(grow, 0, i%3, 4, i%3)
	}
	f.Add(grow)
	// Fill and evict eight blocks so the ring's head has moved, consume
	// four, grow the ring by consuming what is inserted, then evict
	// through the grown ring; rebase with clamping part-way.
	var wrap []byte
	for l := byte(0); l < bufCap+8; l++ {
		wrap = append(wrap, 1, l)
	}
	wrap = append(wrap, 4, 8, 4, 9, 4, 10, 4, 11)
	for i := byte(0); i < 70; i++ {
		wrap = append(wrap, 2, 41+i%4, 5, 41+i%4)
	}
	wrap = append(wrap, 7, 200)
	for l := byte(0); l < 120; l++ {
		wrap = append(wrap, 3, l)
	}
	f.Add(wrap)
	// Lines 0 and 34 share an index home, as do 2 and 36: consuming the
	// first of each pair must shift the second back into its probe run.
	f.Add([]byte{0, 0, 0, 34, 0, 2, 0, 36, 0, 13, 4, 0, 6, 34, 4, 2, 6, 36, 6, 13, 0, 0, 6, 34, 4, 34, 6, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got prefetchBuffer
		want := newRefBuffer()
		const maxOps = 1024
		for i, p := 0, 0; p+1 < len(data) && i < maxOps; i, p = i+1, p+2 {
			op, arg := data[p]%8, data[p+1]
			line := mem.Line(arg % 48)
			switch op {
			case 0, 1, 2, 3:
				g, w := got.contains(line), want.contains(line)
				if g != w {
					t.Fatalf("op %d: contains(%d) = %v, reference %v", i, line, g, w)
				}
				if !g {
					ready := uint64(i)*8 + uint64(arg%8)
					got.insert(line, ready)
					want.insert(line, ready)
				}
			case 4, 5:
				gr, g := got.take(line)
				wr, w := want.take(line)
				if g != w || gr != wr {
					t.Fatalf("op %d: take(%d) = %d,%v, reference %d,%v", i, line, gr, g, wr, w)
				}
			case 6:
				if g, w := got.contains(line), want.contains(line); g != w {
					t.Fatalf("op %d: contains(%d) = %v, reference %v", i, line, g, w)
				}
			case 7:
				got.rebase(4 * uint64(arg))
				want.rebase(4 * uint64(arg))
			}
			if got.size() != want.size() || got.flen != len(want.fifo) {
				t.Fatalf("op %d: size/fifo %d/%d, reference %d/%d", i, got.size(), got.flen, want.size(), len(want.fifo))
			}
			gc := bufferContents(&got)
			for l, e := range want.buf {
				if r, ok := gc[l]; !ok || r != e.readyAt {
					t.Fatalf("op %d: line %d: buffered=%v readyAt=%d, reference buffered readyAt=%d", i, l, ok, r, e.readyAt)
				}
			}
			for l := range gc {
				if !want.contains(l) {
					t.Fatalf("op %d: line %d buffered, reference evicted it", i, l)
				}
			}
		}
	})
}
