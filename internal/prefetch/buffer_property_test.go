package prefetch

import (
	"math/rand"
	"testing"

	"domino/internal/mem"
)

// bufferModel is the reference the property test checks Buffer against: a
// plain ordered list of resident lines, evicting from the front. It
// deliberately shares no code or data-structure tricks with Buffer (which
// keeps resident blocks unordered in fixed arrays and evicts by smallest
// insertion sequence number).
type bufferModel struct {
	capacity int
	order    []mem.Line // insertion order, oldest first
	tags     map[mem.Line]string
	issued   uint64
	used     uint64
	dropped  uint64
	evicted  []mem.Line // every capacity-displacement and invalidation, in order
}

func newBufferModel(capacity int) *bufferModel {
	if capacity <= 0 {
		capacity = 1
	}
	return &bufferModel{capacity: capacity, tags: map[mem.Line]string{}}
}

func (m *bufferModel) remove(line mem.Line) {
	for i, l := range m.order {
		if l == line {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	delete(m.tags, line)
}

func (m *bufferModel) insert(line mem.Line, tag string) bool {
	if _, ok := m.tags[line]; ok {
		return false
	}
	for len(m.order) >= m.capacity {
		oldest := m.order[0]
		m.remove(oldest)
		m.dropped++
		m.evicted = append(m.evicted, oldest)
	}
	m.order = append(m.order, line)
	m.tags[line] = tag
	m.issued++
	return true
}

func (m *bufferModel) consume(line mem.Line) (string, bool) {
	tag, ok := m.tags[line]
	if !ok {
		return "", false
	}
	m.remove(line)
	m.used++
	return tag, true
}

func (m *bufferModel) invalidate(line mem.Line) bool {
	if _, ok := m.tags[line]; !ok {
		return false
	}
	m.remove(line)
	m.dropped++
	m.evicted = append(m.evicted, line)
	return true
}

// TestBufferProperty drives Buffer and the reference model through seeded
// randomized interleavings of Insert/Consume/Invalidate and checks, after
// every operation: FIFO eviction order (via the OnEvict sequence), the
// capacity bound, OnEvict firing exactly once per displaced line, counter
// agreement, and exact content agreement.
func TestBufferProperty(t *testing.T) {
	for _, cfg := range []struct {
		seed         int64
		capacity     int
		keyspace     int64
		ops          int
		consumeHeavy bool
	}{
		// Tiny capacity with a small keyspace: constant displacement and
		// frequent duplicate inserts.
		{seed: 1, capacity: 2, keyspace: 8, ops: 4000},
		// The paper's 32-block buffer under a hit-heavy mix.
		{seed: 2, capacity: 32, keyspace: 48, ops: 8000},
		// Capacity 1: every insert displaces the previous resident.
		{seed: 3, capacity: 1, keyspace: 4, ops: 2000},
		// Keyspace much larger than capacity: mostly cold misses.
		{seed: 4, capacity: 8, keyspace: 1 << 30, ops: 4000},
		// Consume-heavy: a large buffer that never fills because blocks
		// are consumed almost as fast as they are inserted — the
		// interleaving that used to grow the fifo without bound (gone
		// entries were only drained by evictOldest, which runs only at
		// capacity).
		{seed: 5, capacity: 64, keyspace: 1 << 30, ops: 20000, consumeHeavy: true},
	} {
		buf := NewBuffer(cfg.capacity)
		model := newBufferModel(cfg.capacity)
		var evictions []mem.Line
		buf.OnEvict(func(l mem.Line) { evictions = append(evictions, l) })

		rng := rand.New(rand.NewSource(cfg.seed))
		for op := 0; op < cfg.ops; op++ {
			line := mem.Line(rng.Int63n(cfg.keyspace))
			switch r := rng.Intn(10); {
			case cfg.consumeHeavy:
				// Insert, then (almost always) consume straight away, so
				// the buffer stays far below capacity for the whole run.
				tag := "t"
				if got, want := buf.Insert(line, tag), model.insert(line, tag); got != want {
					t.Fatalf("seed %d op %d: Insert(%d) = %v, model %v", cfg.seed, op, line, got, want)
				}
				if r < 9 {
					gotTag, got := buf.Consume(line)
					wantTag, want := model.consume(line)
					if got != want || gotTag != wantTag {
						t.Fatalf("seed %d op %d: Consume(%d) = %q,%v, model %q,%v",
							cfg.seed, op, line, gotTag, got, wantTag, want)
					}
				}
			case r < 6:
				tag := "t" + string(rune('a'+rng.Intn(3)))
				got, want := buf.Insert(line, tag), model.insert(line, tag)
				if got != want {
					t.Fatalf("seed %d op %d: Insert(%d) = %v, model %v", cfg.seed, op, line, got, want)
				}
			case r < 9:
				gotTag, got := buf.Consume(line)
				wantTag, want := model.consume(line)
				if got != want || gotTag != wantTag {
					t.Fatalf("seed %d op %d: Consume(%d) = %q,%v, model %q,%v",
						cfg.seed, op, line, gotTag, got, wantTag, want)
				}
			default:
				if got, want := buf.Invalidate(line), model.invalidate(line); got != want {
					t.Fatalf("seed %d op %d: Invalidate(%d) = %v, model %v", cfg.seed, op, line, got, want)
				}
			}

			if buf.Len() > cfg.capacity {
				t.Fatalf("seed %d op %d: Len %d exceeds capacity %d", cfg.seed, op, buf.Len(), cfg.capacity)
			}
			// Storage is exactly capacity slots under every interleaving,
			// including the consume-heavy one where the buffer never
			// fills: nothing grows, and no more than capacity blocks are
			// resident.
			if len(buf.lines) != cfg.capacity || cap(buf.lines) != cfg.capacity ||
				len(buf.tags) != cfg.capacity || cap(buf.tags) != cfg.capacity ||
				len(buf.seqs) != cfg.capacity || cap(buf.seqs) != cfg.capacity {
				t.Fatalf("seed %d op %d: storage lines/tags/seqs = %d/%d/%d (cap %d/%d/%d), want exactly %d",
					cfg.seed, op, len(buf.lines), len(buf.tags), len(buf.seqs),
					cap(buf.lines), cap(buf.tags), cap(buf.seqs), cfg.capacity)
			}
			if buf.n > cfg.capacity {
				t.Fatalf("seed %d op %d: %d resident slots, capacity %d", cfg.seed, op, buf.n, cfg.capacity)
			}
			if buf.Len() != len(model.order) {
				t.Fatalf("seed %d op %d: Len %d, model %d", cfg.seed, op, buf.Len(), len(model.order))
			}
			for _, l := range model.order {
				if !buf.Contains(l) {
					t.Fatalf("seed %d op %d: resident line %d missing from buffer", cfg.seed, op, l)
				}
			}
			if buf.Issued() != model.issued || buf.Used() != model.used || buf.Dropped() != model.dropped {
				t.Fatalf("seed %d op %d: counters issued/used/dropped = %d/%d/%d, model %d/%d/%d",
					cfg.seed, op, buf.Issued(), buf.Used(), buf.Dropped(),
					model.issued, model.used, model.dropped)
			}
			if buf.Unused() != model.dropped+uint64(len(model.order)) {
				t.Fatalf("seed %d op %d: Unused %d, model %d",
					cfg.seed, op, buf.Unused(), model.dropped+uint64(len(model.order)))
			}
			// The OnEvict stream is the FIFO-order displacement record:
			// exactly one callback per evicted line occurrence, in the
			// model's eviction order. Consumed lines never appear.
			if len(evictions) != len(model.evicted) {
				t.Fatalf("seed %d op %d: %d OnEvict calls, model expects %d",
					cfg.seed, op, len(evictions), len(model.evicted))
			}
			for i, l := range model.evicted {
				if evictions[i] != l {
					t.Fatalf("seed %d op %d: eviction %d = line %d, model %d (FIFO order violated)",
						cfg.seed, op, i, evictions[i], l)
				}
			}
		}
	}
}
