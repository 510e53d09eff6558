package timing

import (
	"testing"

	"domino/internal/config"
	"domino/internal/core"
	"domino/internal/dram"
	"domino/internal/trace"
	"domino/internal/workload"
)

// BenchmarkStep times Simulator.Step, one access per op, with the Domino
// prefetcher at the dominosim default scale (1/16 of the paper's tables)
// on a pre-generated 64 Ki-access OLTP slice, so generation stays out of
// the measurement. One untimed pass over the slice first warms the
// caches, the prefetcher's tables and the prefetch buffer's FIFO ring, so
// allocs/op is the steady state, which scripts/bench.sh gates at 0.
func BenchmarkStep(b *testing.B) {
	const mask = 1<<16 - 1
	accs := trace.Collect(trace.Limit(workload.New(workload.ByName("OLTP")), mask+1), mask+1).Accesses
	meter := &dram.Meter{}
	s := New(config.DefaultMachine(), core.New(core.ScaledConfig(4, 16), meter), meter)
	for _, a := range accs {
		s.Step(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(accs[i&mask])
	}
}
