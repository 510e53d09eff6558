package vldp

import (
	"testing"

	"domino/internal/benchseq"
)

// BenchmarkTrainLookup drives VLDP's training and prediction path with the
// recurring-stream miss sequence the other prefetchers' benchmarks use:
// every miss costs a DHB lookup (with a page allocation at each stream
// start), DPT training at every history length and a chained degree-4
// prediction. One untimed pass over the sequence first fills the DHB and
// the DPTs, so allocs/op is the steady state, which scripts/bench.sh
// gates at 0.
func BenchmarkTrainLookup(b *testing.B) {
	const mask = 1<<16 - 1
	events := benchseq.Events(mask+1, 256, 32)
	p := New(DefaultConfig(4))
	for _, ev := range events {
		p.Trigger(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Trigger(events[i&mask])
	}
}
