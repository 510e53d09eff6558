package core

import (
	"domino/internal/mem"
)

// refSuperEntry groups the entries sharing a tag (the first address of the
// pair). Entries are kept in MRU order; the most recent entry is the
// stream Domino prefetches first when only one address is known.
type refSuperEntry struct {
	tag     mem.Line
	entries []Entry // index 0 is most recently used
}

// refRow is one row of the EIT: a handful of super-entries in MRU order,
// occupying one cache block in memory.
type refRow struct {
	supers []*refSuperEntry // index 0 is most recently used
}

// refEIT is the pointer-based Enhanced Index Table the slab EIT replaced,
// kept as the differential reference for FuzzEITVsReference and as the
// "/Map" side of BenchmarkEIT: rows of *refSuperEntry in MRU order, MRU
// updates by prepend-allocation, and Lookup copying into a fresh slice.
// Its behaviour is the specification the slab layout must reproduce.
type refEIT struct {
	rows            []*refRow
	mask            uint64
	shift           uint
	supersPerRow    int
	entriesPerSuper int
	populatedRows   int
}

// newRefEIT builds a table with the given geometry. rowCount is rounded up to
// a power of two.
func newRefEIT(rowCount, supersPerRow, entriesPerSuper int) *refEIT {
	if rowCount < 1 {
		rowCount = 1
	}
	n := 1
	for n < rowCount {
		n <<= 1
	}
	if supersPerRow < 1 {
		supersPerRow = 1
	}
	if entriesPerSuper < 1 {
		entriesPerSuper = 1
	}
	shift := uint(64)
	for m := n; m > 1; m >>= 1 {
		shift--
	}
	return &refEIT{
		rows:            make([]*refRow, n),
		mask:            uint64(n - 1),
		shift:           shift,
		supersPerRow:    supersPerRow,
		entriesPerSuper: entriesPerSuper,
	}
}

// Rows returns the row count.
func (t *refEIT) Rows() int { return len(t.rows) }

// PopulatedRows returns how many rows have been allocated.
func (t *refEIT) PopulatedRows() int { return t.populatedRows }

// rowIndex hashes a line address to a row. Fibonacci hashing with the
// product's high bits keeps neighbouring lines from clustering in the same
// rows.
func (t *refEIT) rowIndex(line mem.Line) uint64 {
	if t.shift == 64 {
		return 0
	}
	return (uint64(line) * 0x9E3779B97F4A7C15) >> t.shift & t.mask
}

// Lookup fetches the super-entry tagged with line, if present, returning a
// copy of its entries in MRU order. The caller accounts the off-chip row
// read; Lookup itself is functional. Lookup refreshes the super-entry's
// LRU position, as the paper's replay path does when it brings the row into
// PointBuf.
func (t *refEIT) Lookup(line mem.Line) ([]Entry, bool) {
	row := t.rows[t.rowIndex(line)]
	if row == nil {
		return nil, false
	}
	for i, se := range row.supers {
		if se.tag == line {
			copy(row.supers[1:i+1], row.supers[:i])
			row.supers[0] = se
			out := make([]Entry, len(se.entries))
			copy(out, se.entries)
			return out, true
		}
	}
	return nil, false
}

// Update records that triggering event tag was followed by next, whose HT
// position is ptr — the sampled EIT update of the recording path: the row
// is fetched into FetchBuf, the super-entry and entry are found or
// allocated with LRU replacement, the pointer is refreshed, and both LRU
// stacks are updated.
func (t *refEIT) Update(tag, next mem.Line, ptr uint64) {
	idx := t.rowIndex(tag)
	row := t.rows[idx]
	if row == nil {
		row = &refRow{}
		t.rows[idx] = row
		t.populatedRows++
	}

	// Find or allocate the super-entry.
	var se *refSuperEntry
	for i, cand := range row.supers {
		if cand.tag == tag {
			se = cand
			copy(row.supers[1:i+1], row.supers[:i])
			row.supers[0] = se
			break
		}
	}
	if se == nil {
		se = &refSuperEntry{tag: tag}
		if len(row.supers) >= t.supersPerRow {
			row.supers = row.supers[:t.supersPerRow-1] // drop LRU
		}
		row.supers = append([]*refSuperEntry{se}, row.supers...)
	}

	// Find or allocate the entry for next.
	for i := range se.entries {
		if se.entries[i].Addr == next {
			e := se.entries[i]
			e.Ptr = ptr
			copy(se.entries[1:i+1], se.entries[:i])
			se.entries[0] = e
			return
		}
	}
	if len(se.entries) >= t.entriesPerSuper {
		se.entries = se.entries[:t.entriesPerSuper-1]
	}
	se.entries = append([]Entry{{Addr: next, Ptr: ptr}}, se.entries...)
}
