package core

import (
	"testing"

	"domino/internal/benchseq"
	"domino/internal/mem"
)

// BenchmarkTrainLookup drives Domino's full training + replay path with
// the recurring-stream miss sequence the STMS and Digram benchmarks use:
// every miss costs one EIT lookup (and a first prefetch on a hit), the
// following miss disambiguates the pending super-entry and opens a stream
// on a match, and sampled misses update the EIT. The tables are the
// dominosim default scale (1/16 of the paper's). One untimed pass over the
// sequence first grows the EIT slab and the stream pool, so allocs/op is
// the steady state, which scripts/bench.sh gates at 0.
func BenchmarkTrainLookup(b *testing.B) {
	const mask = 1<<16 - 1
	events := benchseq.Events(mask+1, 256, 32)
	p := New(ScaledConfig(4, 16), nil)
	for _, ev := range events {
		p.Trigger(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Trigger(events[i&mask])
	}
}

// BenchmarkEIT measures the EIT kernel alone on the benchmark miss
// sequence: per op, one lookup of the current line and one update of the
// previous line's super-entry with the current line. /Flat is the slab
// EIT with LookupInto into a reused buffer; /Map is the pointer-based
// reference it replaced (eit_ref_test.go), which allocates on both paths.
// The table is small enough (4 K rows) for super-entry replacement to be
// constant. scripts/bench.sh gates the same-run Map/Flat ratio.
func BenchmarkEIT(b *testing.B) {
	const mask = 1<<16 - 1
	events := benchseq.Events(mask+1, 256, 32)
	lines := make([]mem.Line, len(events))
	for i, ev := range events {
		lines[i] = ev.Line
	}
	const rows, supers, entries = 1 << 12, 4, 3
	b.Run("Flat", func(b *testing.B) {
		t := NewEIT(rows, supers, entries)
		var dst []Entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			cur := lines[i&mask]
			dst, _ = t.LookupInto(cur, dst)
			t.Update(lines[(i-1)&mask], cur, uint64(i))
		}
	})
	b.Run("Map", func(b *testing.B) {
		t := newRefEIT(rows, supers, entries)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			cur := lines[i&mask]
			t.Lookup(cur)
			t.Update(lines[(i-1)&mask], cur, uint64(i))
		}
	})
}
