// Package core implements the Domino temporal data prefetcher — the
// paper's contribution. Domino logically looks up the miss history with
// both the last one and the last two triggering events: a single-address
// lookup starts a tentative stream immediately (one off-chip round trip),
// and the following triggering event disambiguates between the streams that
// begin with the same address, using the successor addresses stored in the
// Enhanced Index Table.
package core

import (
	"fmt"
	"math"

	"domino/internal/mem"
)

// Entry is one (address, pointer) pair within a super-entry of the EIT: the
// pointer to the most recent occurrence in the History Table of the
// super-entry's tag followed by Addr (Figure 7).
type Entry struct {
	// Addr is the triggering event that followed the tag.
	Addr mem.Line
	// Ptr is the HT sequence number of Addr at that occurrence.
	Ptr uint64
}

// EIT is the Enhanced Index Table (Section III-B): a bucketised hash table
// in main memory, indexed by a *single* triggering-event address, whose
// rows hold super-entries of (successor address, HT pointer) pairs with
// two-level LRU replacement — among super-entries within a row and among
// entries within a super-entry.
//
// The layout is pointer-free, so updates and lookups allocate nothing and
// the garbage collector has nothing to scan:
//
//   - each row is supersPerRow int32 super-entry ids in MRU order (index 0
//     is most recently used) plus a count of the ids in use;
//   - super-entries live in one slab of parallel slices — tag, entry count,
//     and entriesPerSuper entries each, in MRU order.
//
// A slab slot is appended the first time a row gains a super-entry; once a
// row is full, replacing its LRU super-entry reuses that slot. Memory is
// therefore proportional to the super-entries ever written, not to the
// table's geometry: a full-scale 2 M-row table costs 17 bytes per row up
// front (the id array and counts) plus one slot per super-entry actually
// created.
type EIT struct {
	ids   []int32 // rows × supersPerRow super-entry ids, MRU first per row
	count []uint8 // ids in use per row

	// The super-entry slab: slot i is tags[i], n[i] and
	// entries[i*entriesPerSuper : i*entriesPerSuper+n[i]].
	tags    []mem.Line
	n       []uint8
	entries []Entry

	mask            uint64
	shift           uint
	supersPerRow    int
	entriesPerSuper int
	populatedRows   int
}

// maxWays is the largest super-entries-per-row and entries-per-super-entry
// count the slab can hold: both are counted in a uint8.
const maxWays = math.MaxUint8

// NewEIT builds a table with the given geometry. rowCount is rounded up to
// a power of two. It panics if a dimension exceeds what the slab's
// counters and int32 ids can address (more than 255 super-entries per row
// or entries per super-entry, or more than 2^31-1 super-entries in all),
// rather than letting a counter wrap and silently skew the figures.
func NewEIT(rowCount, supersPerRow, entriesPerSuper int) *EIT {
	if rowCount < 1 {
		rowCount = 1
	}
	if supersPerRow < 1 {
		supersPerRow = 1
	}
	if entriesPerSuper < 1 {
		entriesPerSuper = 1
	}
	if supersPerRow > maxWays {
		panic(fmt.Sprintf("core: EIT geometry has %d super-entries per row; the slab holds at most %d",
			supersPerRow, maxWays))
	}
	if entriesPerSuper > maxWays {
		panic(fmt.Sprintf("core: EIT geometry has %d entries per super-entry; the slab holds at most %d",
			entriesPerSuper, maxWays))
	}
	maxRows := math.MaxInt32 / supersPerRow
	n := 1
	for n < rowCount && n <= maxRows {
		n <<= 1
	}
	if n > maxRows {
		panic(fmt.Sprintf("core: EIT geometry of %d rows (rounded up to a power of two) x %d super-entries exceeds the slab's %d int32 ids",
			rowCount, supersPerRow, math.MaxInt32))
	}
	shift := uint(64)
	for m := n; m > 1; m >>= 1 {
		shift--
	}
	return &EIT{
		ids:             make([]int32, n*supersPerRow),
		count:           make([]uint8, n),
		mask:            uint64(n - 1),
		shift:           shift,
		supersPerRow:    supersPerRow,
		entriesPerSuper: entriesPerSuper,
	}
}

// Rows returns the row count.
func (t *EIT) Rows() int { return len(t.count) }

// PopulatedRows returns how many rows hold at least one super-entry.
func (t *EIT) PopulatedRows() int { return t.populatedRows }

// rowIndex hashes a line address to a row. Fibonacci hashing with the
// product's high bits keeps neighbouring lines from clustering in the same
// rows.
func (t *EIT) rowIndex(line mem.Line) uint64 {
	if t.shift == 64 {
		return 0
	}
	return (uint64(line) * 0x9E3779B97F4A7C15) >> t.shift & t.mask
}

// row returns the in-use MRU id list of row r.
func (t *EIT) row(r int) []int32 {
	base := r * t.supersPerRow
	return t.ids[base : base+int(t.count[r]) : base+t.supersPerRow]
}

// find returns the position in ids of the super-entry tagged line, or -1.
func (t *EIT) find(ids []int32, line mem.Line) int {
	for i, id := range ids {
		if t.tags[id] == line {
			return i
		}
	}
	return -1
}

// toFront moves s[i] to the front (the MRU position), shifting s[:i] back.
func toFront[T any](s []T, i int) {
	v := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = v
}

// Lookup fetches the super-entry tagged with line, if present, returning a
// copy of its entries in MRU order. It is LookupInto with a fresh slice.
func (t *EIT) Lookup(line mem.Line) ([]Entry, bool) { return t.LookupInto(line, nil) }

// LookupInto fetches the super-entry tagged with line, if present, copying
// its entries in MRU order into dst[:0] and returning the result, so a
// caller that keeps dst allocates nothing. The caller accounts the
// off-chip row read; LookupInto itself is functional. It refreshes the
// super-entry's LRU position, as the paper's replay path does when it
// brings the row into PointBuf.
func (t *EIT) LookupInto(line mem.Line, dst []Entry) ([]Entry, bool) {
	ids := t.row(int(t.rowIndex(line)))
	i := t.find(ids, line)
	if i < 0 {
		return dst[:0], false
	}
	toFront(ids, i)
	id := int(ids[0])
	base := id * t.entriesPerSuper
	return append(dst[:0], t.entries[base:base+int(t.n[id])]...), true
}

// Update records that triggering event tag was followed by next, whose HT
// position is ptr — the sampled EIT update of the recording path: the row
// is fetched into FetchBuf, the super-entry and entry are found or
// allocated with LRU replacement, the pointer is refreshed, and both LRU
// stacks are updated.
func (t *EIT) Update(tag, next mem.Line, ptr uint64) {
	r := int(t.rowIndex(tag))
	ids := t.row(r)

	// Find or allocate the super-entry.
	var id int
	if i := t.find(ids, tag); i >= 0 {
		toFront(ids, i)
		id = int(ids[0])
	} else {
		if len(ids) < t.supersPerRow {
			// The row gains a super-entry: append a slab slot.
			if len(ids) == 0 {
				t.populatedRows++
			}
			id = len(t.tags)
			t.tags = append(t.tags, 0)
			t.n = append(t.n, 0)
			t.entries = append(t.entries, make([]Entry, t.entriesPerSuper)...)
			ids = ids[:len(ids)+1]
			t.count[r]++
		} else {
			// Replace the row's LRU super-entry, reusing its slot.
			id = int(ids[len(ids)-1])
		}
		copy(ids[1:], ids[:len(ids)-1])
		ids[0] = int32(id)
		t.tags[id] = tag
		t.n[id] = 0
	}

	// Find or allocate the entry for next.
	base := id * t.entriesPerSuper
	es := t.entries[base : base+int(t.n[id])]
	for i := range es {
		if es[i].Addr == next {
			es[i].Ptr = ptr
			toFront(es, i)
			return
		}
	}
	if len(es) < t.entriesPerSuper {
		t.n[id]++
		es = es[:len(es)+1]
	}
	copy(es[1:], es[:len(es)-1])
	es[0] = Entry{Addr: next, Ptr: ptr}
}
