package core

import (
	"reflect"
	"testing"

	"domino/internal/mem"
)

// superState is one super-entry as the differential fuzzer compares it:
// its tag and its entries in MRU order.
type superState struct {
	Tag     mem.Line
	Entries []Entry
}

// rowStates reads every row of the slab EIT in MRU order without touching
// either LRU stack.
func rowStates(t *EIT) [][]superState {
	out := make([][]superState, t.Rows())
	for r := range out {
		base := r * t.supersPerRow
		for _, id := range t.ids[base : base+int(t.count[r])] {
			e := int(id) * t.entriesPerSuper
			out[r] = append(out[r], superState{
				Tag:     t.tags[id],
				Entries: append([]Entry(nil), t.entries[e:e+int(t.n[id])]...),
			})
		}
	}
	return out
}

// refRowStates is rowStates for the pointer reference.
func refRowStates(t *refEIT) [][]superState {
	out := make([][]superState, t.Rows())
	for r, row := range t.rows {
		if row == nil {
			continue
		}
		for _, se := range row.supers {
			out[r] = append(out[r], superState{
				Tag:     se.tag,
				Entries: append([]Entry(nil), se.entries...),
			})
		}
	}
	return out
}

// FuzzEITVsReference drives the slab EIT and the pointer-based reference
// (eit_ref_test.go) through the same Update/Lookup/LookupInto sequence and
// requires identical results, identical MRU order of every row's
// super-entries and of every super-entry's entries, and identical
// PopulatedRows after every operation. The first three bytes pick a small
// geometry — 1-4 rows, 1-8 super-entries per row, 1-8 entries per
// super-entry — and tags and successors come from a 16-line space, so
// row collisions and both levels of LRU eviction are dense. Each further
// byte triple is one operation:
//
//	op%4 ∈ {0,1}  Update(tag, next, ptr) with ptr the operation index
//	op%4 = 2      Lookup(tag)
//	op%4 = 3      LookupInto(tag, dst) into a reused buffer
func FuzzEITVsReference(f *testing.F) {
	// One row, one super-entry, one entry: every update evicts.
	f.Add([]byte{0, 0, 0, 0, 1, 2, 0, 3, 4, 2, 1, 0, 0, 1, 5, 3, 1, 0})
	// The default-like geometry on one row: super-entry churn.
	f.Add([]byte{0, 3, 2, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 2, 1, 0, 0, 6, 7, 3, 2, 0})
	// Wide geometry: 4 rows, 8x8, repeated successors refresh pointers.
	f.Add([]byte{3, 7, 7, 0, 1, 2, 0, 1, 3, 0, 1, 2, 1, 1, 4, 2, 1, 0, 3, 1, 0, 0, 9, 1, 2, 9, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, supers, entries := 1+int(data[0]%4), 1+int(data[1]%8), 1+int(data[2]%8)
		got := NewEIT(rows, supers, entries)
		want := newRefEIT(rows, supers, entries)
		var dst []Entry
		const maxOps = 256
		for i, p := 0, 3; p+2 < len(data) && i < maxOps; i, p = i+1, p+3 {
			op, tag, next := data[p]%4, mem.Line(data[p+1]%16), mem.Line(data[p+2]%16)
			switch op {
			case 0, 1:
				got.Update(tag, next, uint64(i))
				want.Update(tag, next, uint64(i))
			case 2:
				g, gok := got.Lookup(tag)
				w, wok := want.Lookup(tag)
				if gok != wok || !reflect.DeepEqual(g, w) {
					t.Fatalf("op %d: Lookup(%d) = %v,%v, reference %v,%v", i, tag, g, gok, w, wok)
				}
			case 3:
				var gok bool
				dst, gok = got.LookupInto(tag, dst)
				w, wok := want.Lookup(tag)
				if gok != wok || (wok && !reflect.DeepEqual(dst, w)) || (!wok && len(dst) != 0) {
					t.Fatalf("op %d: LookupInto(%d) = %v,%v, reference %v,%v", i, tag, dst, gok, w, wok)
				}
			}
			if g, w := got.PopulatedRows(), want.PopulatedRows(); g != w {
				t.Fatalf("op %d: PopulatedRows = %d, reference %d", i, g, w)
			}
			if g, w := rowStates(got), refRowStates(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("op %d: rows diverged (MRU order):\n got %+v\nwant %+v", i, g, w)
			}
		}
	})
}
