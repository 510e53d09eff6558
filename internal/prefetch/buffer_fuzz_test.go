package prefetch

import (
	"reflect"
	"testing"

	"domino/internal/mem"
)

// FuzzBufferVsReference drives the flat Buffer and the map-and-fifo
// reference (buffer_ref_test.go) through the same operation sequence and
// requires identical return values, identical Len, Issued, Used, Dropped
// and Unused counters, and an identical OnEvict sequence after every
// operation. The first byte picks a capacity of 1-8 blocks; lines come
// from a 16-line space and tags from three issuers, so duplicates,
// displacements and re-insertions of consumed lines are dense. Each
// further byte pair is one operation:
//
//	op%8 ∈ {0,1,2}  Insert(line, tag)
//	op%8 ∈ {3,4}    Consume(line)
//	op%8 = 5        Invalidate(line)
//	op%8 = 6        Contains(line)
//	op%8 = 7        ResetCounters
func FuzzBufferVsReference(f *testing.F) {
	// Capacity 1: every insert displaces the resident block.
	f.Add([]byte{0, 0, 1, 1, 2, 3, 1, 6, 2, 0, 3})
	// Fill, consume from the middle, refill: eviction must skip the hole.
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 3, 2, 0, 5, 0, 6, 0, 7, 5, 4, 0, 2, 6, 3})
	// Invalidate-heavy churn with a counter reset mid-stream.
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3, 5, 2, 0, 9, 7, 0, 5, 1, 0, 2, 4, 9, 0, 10, 5, 10})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		capacity := 1 + int(data[0]%8)
		got, want := NewBuffer(capacity), newRefBuffer(capacity)
		var gotEv, wantEv []mem.Line
		got.OnEvict(func(l mem.Line) { gotEv = append(gotEv, l) })
		want.OnEvict(func(l mem.Line) { wantEv = append(wantEv, l) })
		tags := [...]string{"a", "b", "c"}
		const maxOps = 256
		for i, p := 0, 1; p+1 < len(data) && i < maxOps; i, p = i+1, p+2 {
			op, line := data[p]%8, mem.Line(data[p+1]%16)
			switch op {
			case 0, 1, 2:
				tag := tags[data[p+1]/16%3]
				if g, w := got.Insert(line, tag), want.Insert(line, tag); g != w {
					t.Fatalf("op %d: Insert(%d, %q) = %v, reference %v", i, line, tag, g, w)
				}
			case 3, 4:
				gt, g := got.Consume(line)
				wt, w := want.Consume(line)
				if g != w || gt != wt {
					t.Fatalf("op %d: Consume(%d) = %q,%v, reference %q,%v", i, line, gt, g, wt, w)
				}
			case 5:
				if g, w := got.Invalidate(line), want.Invalidate(line); g != w {
					t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", i, line, g, w)
				}
			case 6:
				if g, w := got.Contains(line), want.Contains(line); g != w {
					t.Fatalf("op %d: Contains(%d) = %v, reference %v", i, line, g, w)
				}
			case 7:
				got.ResetCounters()
				want.ResetCounters()
			}
			if got.Len() != want.Len() || got.Issued() != want.Issued() || got.Used() != want.Used() ||
				got.Dropped() != want.Dropped() || got.Unused() != want.Unused() {
				t.Fatalf("op %d: len/issued/used/dropped/unused = %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", i,
					got.Len(), got.Issued(), got.Used(), got.Dropped(), got.Unused(),
					want.Len(), want.Issued(), want.Used(), want.Dropped(), want.Unused())
			}
			if !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("op %d: OnEvict sequence %v, reference %v", i, gotEv, wantEv)
			}
		}
	})
}
