package prefetch

import (
	"domino/internal/mem"
)

// Session is the per-access train/lookup handle split out of the
// trace-replay loop: one long-lived access stream driven one access at a
// time by an external caller, instead of a whole trace.Reader replayed by
// Run/RunWarm. A Session owns the full Section IV-D pipeline — an L1-D
// model, the prefetch buffer, and one prefetcher with its metadata — so
// concurrent Sessions are fully isolated from each other (the basis for
// per-tenant isolation in the serving layer, internal/serve).
//
// A Session is not safe for concurrent use; drive each Session from a
// single goroutine (the serving layer's single-writer shards do exactly
// that). Its steady-state memory is bounded as long as the prefetcher's
// metadata tables are bounded: the buffer is fixed-size and the stream
// bookkeeping compacts itself (see StreamSet.compactInflight), which the
// soak test in internal/serve pins across tens of millions of accesses.
type Session struct {
	e      *Evaluator
	issued []mem.Line // scratch reused across Access calls
}

// Outcome reports what one access did: whether it reached the prefetcher
// (L1-D hits trigger nothing), whether the prefetch buffer covered it, and
// which lines the prefetcher asked to prefetch in response.
type Outcome struct {
	// Triggered reports that the access missed the L1-D and was delivered
	// to the prefetcher as a triggering event.
	Triggered bool
	// Hit reports that the miss was covered by the prefetch buffer.
	Hit bool
	// Prefetched lists the non-redundant lines the prefetcher issued for
	// this access, in issue order. The slice is reused by the next Access
	// call; callers that retain it must copy.
	Prefetched []mem.Line
}

// SessionStats is a live snapshot of a Session's counters. Unlike
// Evaluator.Finish it does not close the run: a long-running service can
// sample it at any time and keep going.
type SessionStats struct {
	// Accesses is the number of accesses fed in; L1Hits of them hit the
	// L1-D, Misses missed it (Covered of those were served by the
	// prefetch buffer).
	Accesses uint64
	L1Hits   uint64
	Misses   uint64
	Covered  uint64
	// Issued counts prefetches inserted into the buffer; Used counts
	// those later consumed.
	Issued uint64
	Used   uint64
}

// Coverage returns covered misses over all misses.
func (s SessionStats) Coverage() float64 {
	if s.Misses == 0 {
		return 0
	}
	return float64(s.Covered) / float64(s.Misses)
}

// NewSession builds a per-access evaluation session for p under cfg.
func NewSession(p Prefetcher, cfg EvalConfig) *Session {
	s := &Session{e: NewEvaluator(p, cfg)}
	s.e.OnIssue(func(c Candidate) { s.issued = append(s.issued, c.Line) })
	return s
}

// Access feeds one access through the pipeline and reports the outcome.
func (s *Session) Access(a mem.Access) Outcome {
	s.issued = s.issued[:0]
	ev, triggered := s.e.Step(a)
	return Outcome{
		Triggered:  triggered,
		Hit:        triggered && ev.Kind == mem.EventPrefetchHit,
		Prefetched: s.issued,
	}
}

// Stats returns the session's live counters.
func (s *Session) Stats() SessionStats {
	r := s.e.res
	return SessionStats{
		Accesses: r.Accesses,
		L1Hits:   r.L1Hits,
		Misses:   r.Misses,
		Covered:  r.Covered,
		Issued:   s.e.buf.Issued(),
		Used:     s.e.buf.Used(),
	}
}

// ResetStats zeroes the counters while keeping all warm state — cache and
// buffer contents and the prefetcher's metadata — the same warmup boundary
// Evaluator.ResetStats draws.
func (s *Session) ResetStats() { s.e.ResetStats() }

// Finish closes the session and returns the full Result (stream-length
// histogram, traffic resolution). The session must not be used afterwards.
func (s *Session) Finish() *Result { return s.e.Finish() }
