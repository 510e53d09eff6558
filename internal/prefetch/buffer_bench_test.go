package prefetch

import (
	"testing"

	"domino/internal/mem"
)

// BenchmarkBufferChurn measures the prefetch buffer under the evaluator's
// access pattern at the paper's 32 blocks: per op, one demand lookup
// (Consume) of a line prefetched 16 ops earlier — every other one was
// displaced, so half the lookups miss — one redundancy check (Contains)
// and one Insert, which displaces the oldest block once the buffer is
// full. /Flat is the fixed-array Buffer, which scripts/bench.sh gates at
// 0 allocs/op; /Map is the map-and-fifo reference it replaced
// (buffer_ref_test.go), for the same-run Map/Flat ratio.
func BenchmarkBufferChurn(b *testing.B) {
	type buffer interface {
		Insert(mem.Line, string) bool
		Consume(mem.Line) (string, bool)
		Contains(mem.Line) bool
	}
	run := func(b *testing.B, buf buffer) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := mem.Line(i)
			if i&1 == 0 {
				buf.Consume(l - 16)
			} else {
				buf.Consume(l - 48)
			}
			buf.Contains(l + 1)
			buf.Insert(l, "domino")
		}
	}
	b.Run("Flat", func(b *testing.B) { run(b, NewBuffer(32)) })
	b.Run("Map", func(b *testing.B) { run(b, newRefBuffer(32)) })
}
