package history

import (
	"testing"

	"domino/internal/mem"
	"domino/internal/prefetch"
)

// TestStreamPool checks what the prefetchers rely on: Open replays the
// rest of the pointer's row and then the following rows up to the refill
// bound, a stale pointer opens nothing, at most the set's capacity plus
// one streams are ever built, and steady-state opens and refills
// allocate nothing.
func TestStreamPool(t *testing.T) {
	h := New(48, 4, nil)
	for i := 0; i < 48; i++ {
		h.Append(mem.Line(100 + i))
	}
	set := prefetch.NewStreamSet(2, 4)
	pool := NewStreamPool(h, set, 1)

	s, ok := pool.Open(1)
	if !ok {
		t.Fatal("Open(1) on a retained pointer failed")
	}
	var got []mem.Line
	for {
		l, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, l)
	}
	// Seqs 2-3 finish row 0; one refill row (seqs 4-7) follows.
	want := []mem.Line{102, 103, 104, 105, 106, 107}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}

	h.Append(200) // seq 48 overwrites seq 0
	if _, ok := pool.Open(0); ok {
		t.Fatal("Open on a stale pointer succeeded")
	}
	if set.Len() != 1 {
		t.Fatalf("%d streams active after a stale Open, want 1", set.Len())
	}

	for i := 0; i < 20; i++ {
		pool.Open(uint64(8 + i))
	}
	if len(pool.states) > 3 {
		t.Fatalf("%d pooled streams for a 2-stream set, want at most 3", len(pool.states))
	}
	allocs := testing.AllocsPerRun(100, func() {
		s, _ := pool.Open(20)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Open + replay allocates %.1f times, want 0", allocs)
	}
}
