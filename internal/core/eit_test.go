package core

import (
	"strings"
	"testing"

	"domino/internal/mem"
)

func TestEITUpdateLookup(t *testing.T) {
	e := NewEIT(16, 4, 3)
	e.Update(10, 20, 100)
	entries, ok := e.Lookup(10)
	if !ok || len(entries) != 1 || entries[0] != (Entry{Addr: 20, Ptr: 100}) {
		t.Fatalf("entries = %+v ok=%v", entries, ok)
	}
	if _, ok := e.Lookup(11); ok {
		t.Fatal("lookup of absent tag matched")
	}
}

// TestEITPaperExample reproduces the Figure 7 example: the history
// "A B L D F A Q B A X C U" yields, among others, super-entry A with
// entries (X,P6), (Q,P4), (B,P1) in MRU order.
func TestEITPaperExample(t *testing.T) {
	hist := []mem.Line{'A', 'B', 'L', 'D', 'F', 'A', 'Q', 'B', 'A', 'X', 'C', 'U'}
	e := NewEIT(64, 8, 3)
	for i := 1; i < len(hist); i++ {
		e.Update(hist[i-1], hist[i], uint64(i))
	}
	entries, ok := e.Lookup('A')
	if !ok {
		t.Fatal("no super-entry for A")
	}
	want := []Entry{{Addr: 'X', Ptr: 9}, {Addr: 'Q', Ptr: 6}, {Addr: 'B', Ptr: 1}}
	if len(entries) != len(want) {
		t.Fatalf("entries = %+v", entries)
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, entries[i], want[i])
		}
	}
	// B was followed by L (P2) then by A (P8): MRU order (A,P8), (L,P2).
	entries, _ = e.Lookup('B')
	if entries[0] != (Entry{Addr: 'A', Ptr: 8}) || entries[1] != (Entry{Addr: 'L', Ptr: 2}) {
		t.Fatalf("B entries = %+v", entries)
	}
}

func TestEITEntryLRU(t *testing.T) {
	e := NewEIT(16, 4, 2) // two entries per super-entry
	e.Update(1, 10, 1)
	e.Update(1, 20, 2)
	e.Update(1, 30, 3) // evicts (10, 1)
	entries, _ := e.Lookup(1)
	if len(entries) != 2 || entries[0].Addr != 30 || entries[1].Addr != 20 {
		t.Fatalf("entries = %+v", entries)
	}
	// Refreshing an existing entry updates its pointer and MRU position.
	e.Update(1, 20, 9)
	entries, _ = e.Lookup(1)
	if entries[0] != (Entry{Addr: 20, Ptr: 9}) {
		t.Fatalf("refreshed entry = %+v", entries[0])
	}
}

func TestEITSuperEntryLRU(t *testing.T) {
	// One row, 2 super-entries: force tags into the same row.
	e := NewEIT(1, 2, 3)
	e.Update(1, 10, 1)
	e.Update(2, 20, 2)
	e.Update(3, 30, 3) // evicts tag 1 (LRU)
	if _, ok := e.Lookup(1); ok {
		t.Fatal("tag 1 should have been evicted")
	}
	if _, ok := e.Lookup(2); !ok {
		t.Fatal("tag 2 missing")
	}
	if _, ok := e.Lookup(3); !ok {
		t.Fatal("tag 3 missing")
	}
}

func TestEITLookupRefreshesSuperLRU(t *testing.T) {
	e := NewEIT(1, 2, 3)
	e.Update(1, 10, 1)
	e.Update(2, 20, 2) // MRU order: 2, 1
	e.Lookup(1)        // promotes 1
	e.Update(3, 30, 3) // must evict 2 now
	if _, ok := e.Lookup(2); ok {
		t.Fatal("tag 2 should have been evicted after tag 1 was promoted")
	}
}

func TestEITRowsPowerOfTwo(t *testing.T) {
	e := NewEIT(1000, 4, 3)
	if e.Rows() != 1024 {
		t.Fatalf("Rows = %d, want 1024", e.Rows())
	}
	if NewEIT(0, 0, 0).Rows() != 1 {
		t.Fatal("degenerate geometry")
	}
}

func TestEITPopulatedRows(t *testing.T) {
	e := NewEIT(1024, 4, 3)
	if e.PopulatedRows() != 0 {
		t.Fatal("fresh table populated")
	}
	for i := mem.Line(0); i < 100; i++ {
		e.Update(i, i+1, uint64(i))
	}
	if e.PopulatedRows() == 0 || e.PopulatedRows() > 100 {
		t.Fatalf("PopulatedRows = %d", e.PopulatedRows())
	}
}

func TestEITLookupReturnsCopy(t *testing.T) {
	e := NewEIT(16, 4, 3)
	e.Update(1, 10, 1)
	entries, _ := e.Lookup(1)
	entries[0].Addr = 999
	fresh, _ := e.Lookup(1)
	if fresh[0].Addr != 10 {
		t.Fatal("Lookup exposed internal state")
	}
}

// TestEITGeometryBeyondSlabPanics pins that a geometry the slab cannot
// count fails loudly at construction — in NewEIT and through core.New —
// instead of wrapping a uint8 counter or an int32 id and silently skewing
// every figure built on it.
func TestEITGeometryBeyondSlabPanics(t *testing.T) {
	for _, g := range []struct {
		name                  string
		rows, supers, entries int
		want                  string
	}{
		{"256 entries per super-entry", 16, 4, 256, "256 entries per super-entry"},
		{"256 super-entries per row", 16, 256, 3, "256 super-entries per row"},
		{"more ids than int32", 1 << 30, 4, 3, "int32 ids"},
		{"rounding past int32", 1<<28 + 1, 4, 3, "int32 ids"},
	} {
		for _, build := range []struct {
			via string
			f   func()
		}{
			{"NewEIT", func() { NewEIT(g.rows, g.supers, g.entries) }},
			{"New", func() {
				cfg := testConfig(1)
				cfg.Tables.EITRows, cfg.Tables.SuperEntriesPerRow, cfg.Tables.EntriesPerSuper = g.rows, g.supers, g.entries
				New(cfg, nil)
			}},
		} {
			func() {
				defer func() {
					r := recover()
					msg, _ := r.(string)
					if !strings.Contains(msg, "core: EIT geometry") || !strings.Contains(msg, g.want) {
						t.Errorf("%s via %s: recovered %v, want a panic naming %q", g.name, build.via, r, g.want)
					}
				}()
				build.f()
			}()
		}
	}
}

// TestEITGeometryAtSlabLimit fills a table at the largest countable
// geometry — 255 super-entries per row and 255 entries per super-entry —
// past both limits, and checks that the counters saturate at the LRU
// bound instead of wrapping.
func TestEITGeometryAtSlabLimit(t *testing.T) {
	e := NewEIT(1, 255, 255)
	for i := 0; i < 300; i++ {
		e.Update(1, mem.Line(1000+i), uint64(i))
		e.Update(mem.Line(2+i), 7, uint64(i))
	}
	entries, ok := e.Lookup(1)
	if !ok || len(entries) != 255 || entries[0].Addr != 1299 || entries[254].Addr != 1045 {
		t.Fatalf("tag 1: %d entries (ok=%v), want 255 from 1299 down to 1045", len(entries), ok)
	}
	if got := int(e.count[0]); got != 255 {
		t.Fatalf("row holds %d super-entries, want 255", got)
	}
	if _, ok := e.Lookup(2); ok {
		t.Fatal("tag 2 should have been evicted by 299 newer super-entries")
	}
}
