package vldp

import (
	"fmt"
	"math/rand"
	"testing"

	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/trace"
	"domino/internal/workload"
)

// pageWalk returns n miss events over pages pages: each event picks a
// page, mostly among the recently used ones, and moves that page's offset
// by a delta drawn from a small recurring set (sometimes a random one), so
// DPT histories of every length recur, mismatch and get replaced, and the
// DHB both hits and evicts.
func pageWalk(seed int64, n, pages int) []prefetch.Event {
	r := rand.New(rand.NewSource(seed))
	deltas := []int{1, 2, 1, 3, -1, 2, 5}
	offs := make([]int, pages)
	out := make([]prefetch.Event, 0, n)
	pg := 0
	for len(out) < n {
		if r.Intn(4) == 0 {
			pg = r.Intn(pages)
		}
		d := deltas[r.Intn(len(deltas))]
		if r.Intn(10) == 0 {
			d = r.Intn(127) - 63
		}
		offs[pg] = ((offs[pg]+d)%mem.LinesPerPage + mem.LinesPerPage) % mem.LinesPerPage
		out = append(out, prefetch.Event{
			Line: mem.Page(1000 + pg).LineAt(offs[pg]),
			Kind: mem.EventMiss,
		})
	}
	return out
}

// workloadEvents returns the first n accesses of a workload's stream as
// miss events: random document lines across hundreds of pages plus the
// strided spatial runs VLDP exists for.
func workloadEvents(name string, n int) []prefetch.Event {
	tr := trace.Collect(trace.Limit(workload.New(workload.ByName(name)), n), n)
	out := make([]prefetch.Event, len(tr.Accesses))
	for i, a := range tr.Accesses {
		out[i] = prefetch.Event{PC: a.PC, Line: a.Addr.Line(), Kind: mem.EventMiss}
	}
	return out
}

// TestVLDPMatchesReference replays seeded event streams through the
// allocation-free Prefetcher and the allocating reference it replaced
// (vldp_ref_test.go) and requires the same candidate list, in order, on
// every trigger, at degree 1 and 4 and at the paper's 16-entry DHB and a
// 2-entry one. A wrong DHB MRU order or victim, a lost history or a
// changed DPT update shows up as a differing candidate.
func TestVLDPMatchesReference(t *testing.T) {
	streams := map[string][]prefetch.Event{
		"walk-24-pages":   pageWalk(1, 100_000, 24),
		"walk-12-pages":   pageWalk(2, 100_000, 12),
		"media-streaming": workloadEvents("Media Streaming", 100_000),
		"mapreduce-c":     workloadEvents("MapReduce-C", 100_000),
	}
	for name, events := range streams {
		for _, degree := range []int{1, 4} {
			for _, dhb := range []int{16, 2} {
				t.Run(fmt.Sprintf("%s/degree%d/dhb%d", name, degree, dhb), func(t *testing.T) {
					cfg := DefaultConfig(degree)
					cfg.DHBEntries = dhb
					got, want := New(cfg), newRefPrefetcher(cfg)
					issued := 0
					for i, ev := range events {
						g, w := got.Trigger(ev), want.Trigger(ev)
						if len(g) != len(w) {
							t.Fatalf("trigger %d (%v): %d candidates %v, reference %d %v", i, ev.Line, len(g), g, len(w), w)
						}
						for j := range g {
							if g[j] != w[j] {
								t.Fatalf("trigger %d (%v): candidate %d = %+v, reference %+v", i, ev.Line, j, g[j], w[j])
							}
						}
						issued += len(g)
					}
					if issued == 0 {
						t.Fatal("stream produced no candidates; it exercises nothing")
					}
				})
			}
		}
	}
}
