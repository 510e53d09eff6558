package workload

import "testing"

// generatorChunk is the number of accesses one BenchmarkGeneratorNext op
// generates. A whole chunk per op makes the allocs/op gate exact: a
// fraction of an allocation per access, which the gate's +1 slack would
// hide at one access per op, shows up here as hundreds per op.
const generatorChunk = 4096

// BenchmarkGeneratorNext times Generator.Next on OLTP, one chunk of
// generatorChunk accesses per op, after an untimed warm chunk has sized
// the episode queue. It reports ns/access next to ns/op; scripts/bench.sh
// gates its allocs/op at zero.
func BenchmarkGeneratorNext(b *testing.B) {
	g := New(ByName("OLTP"))
	for i := 0; i < generatorChunk; i++ {
		g.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < generatorChunk; j++ {
			g.Next()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*generatorChunk), "ns/access")
}
