// Package timing estimates execution time for the cycle-accurate
// comparison of Figure 14. The paper uses the Flexus full-system timing
// simulator; we substitute a trace-driven *interval model* (in the style of
// Karkhanis & Smith's first-order superscalar model) that captures the
// three effects that determine prefetching speedup (DESIGN.md §1):
//
//   - coverage: misses served from the prefetch buffer avoid their memory
//     stall;
//   - timeliness: a prefetch issued after k off-chip metadata round trips
//     (Candidate.Delay) is only useful once its block arrives; a demand
//     access that arrives earlier pays the remaining latency, and a
//     prefetch too late to beat a demand fetch degenerates into one;
//   - memory-level parallelism: independent misses within one reorder-buffer
//     window overlap (the group pays the maximum latency, not the sum),
//     while dependent (pointer-chase) misses serialise behind their
//     producers; workloads whose baseline already overlaps misses gain
//     little from prefetching.
//
// Execution time is instructions/width plus accumulated miss penalties;
// time "now" is that running total, which is monotone — the property the
// shared-bus model of bus.go relies on. IPC is instructions over cycles,
// the metric the paper uses.
package timing

import (
	"fmt"

	"domino/internal/cache"
	"domino/internal/config"
	"domino/internal/dram"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/trace"
)

// Result summarises one timing simulation.
type Result struct {
	Prefetcher   string
	Instructions uint64
	Cycles       uint64
	Misses       uint64
	Covered      uint64
	MemAccesses  uint64
	Meter        *dram.Meter

	// Penalty decomposition, for diagnosing where cycles go: Cycles =
	// Instructions/width + the sum of these three.
	PenaltyCovered  uint64 // waits on in-flight prefetched blocks
	PenaltyUncovMem uint64 // demand misses served by memory
	PenaltyUncovL2  uint64 // demand misses served by the LLC
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// SpeedupOver returns this run's IPC relative to a baseline run.
func (r *Result) SpeedupOver(base *Result) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return r.IPC() / b
}

// BandwidthGBps returns the average off-chip bandwidth of this core over
// the run, per the machine's clock.
func (r *Result) BandwidthGBps(mc config.Machine) float64 {
	return dram.GBps(r.Meter.TotalBytes(), r.Cycles, mc.ClockGHz)
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("%s: IPC=%.3f cycles=%d covered=%d/%d",
		r.Prefetcher, r.IPC(), r.Cycles, r.Covered, r.Misses)
}

// Simulator runs the interval timing model for one core. Construct with
// New or NewShared.
type Simulator struct {
	mc    config.Machine
	p     prefetch.Prefetcher
	l1    *cache.Cache
	l2    *cache.Cache // possibly shared between cores
	bus   *Bus         // optional shared memory bus
	buf   prefetchBuffer
	meter *dram.Meter

	memLat uint64 // mc.MemLatencyCycles, computed once

	instrs  uint64 // instructions processed
	penalty uint64 // accumulated stall cycles

	// Miss-group state for MLP: independent misses whose instruction
	// indices fall within one ROB of the group leader, while the leader
	// is still outstanding, overlap; the group pays max latency rather
	// than the sum.
	leaderInstr uint64
	groupStart  uint64 // absolute cycle the group leader issued
	leaderEnd   uint64 // absolute end of the group's latency window
	lastMissEnd uint64 // absolute data arrival of the most recent miss

	metaCharged uint64 // metadata bytes already charged to the shared bus

	res Result
}

// New builds a simulator for machine mc running prefetcher p. meter may be
// nil; prefetcher metadata traffic should already be routed to the same
// meter by the caller.
func New(mc config.Machine, p prefetch.Prefetcher, meter *dram.Meter) *Simulator {
	l2 := cache.New(cache.Config{SizeBytes: mc.L2SizeBytes, Ways: mc.L2Ways, LineBytes: mem.LineSize})
	return NewShared(mc, p, meter, l2, nil)
}

// NewShared builds a simulator whose LLC (and, optionally, memory bus) is
// shared with other cores: the multicore system passes every core the same
// l2 and bus. bus may be nil for contention-free memory.
func NewShared(mc config.Machine, p prefetch.Prefetcher, meter *dram.Meter, l2 *cache.Cache, bus *Bus) *Simulator {
	if meter == nil {
		meter = &dram.Meter{}
	}
	return &Simulator{
		mc:     mc,
		memLat: uint64(mc.MemLatencyCycles()),
		p:      p,
		l1:     cache.New(cache.Config{SizeBytes: mc.L1DSizeBytes, Ways: mc.L1DWays, LineBytes: mem.LineSize}),
		l2:     l2,
		bus:    bus,
		meter:  meter,
		res:    Result{Prefetcher: p.Name(), Meter: meter},
	}
}

// Now returns the current absolute cycle: width-paced instruction flow plus
// accumulated penalties. It is monotone over the run.
func (s *Simulator) Now() uint64 {
	return s.instrs/uint64(s.mc.IssueWidth) + s.penalty
}

// Step advances the model by one trace access.
func (s *Simulator) Step(a mem.Access) {
	s.instrs += uint64(a.Gap) + 1
	s.res.Instructions += uint64(a.Gap) + 1

	line := a.Addr.Line()
	if s.l1.Access(line, a.Write) {
		return // L1 hit: the 2-cycle load-to-use pipeline hides it
	}
	s.res.Misses++
	s.res.MemAccesses++
	now := s.Now()

	// What the demand would cost on its own, from the current hierarchy.
	fallback := s.memLat
	inL2 := s.l2.Contains(line)
	if inL2 {
		fallback = uint64(s.mc.L2HitCycles)
	}

	ev := prefetch.Event{PC: a.PC, Line: line, Write: a.Write}
	var wait uint64
	covered := false
	if readyAt, ok := s.buf.take(line); ok {
		// Covered miss: wait only for the in-flight prefetch, never
		// longer than a demand fetch would take (the MSHRs merge the
		// requests). The prefetch already paid for the bus transfer.
		s.res.Covered++
		covered = true
		ev.Kind = mem.EventPrefetchHit
		if readyAt > now {
			wait = readyAt - now
			if wait > fallback {
				wait = fallback
			}
		}
	} else {
		ev.Kind = mem.EventMiss
		wait = fallback
		if !inL2 {
			s.meter.RecordBlock(dram.Demand)
			if s.bus != nil {
				wait += s.bus.Acquire(now, mem.LineSize)
			}
		}
	}
	s.l2.Insert(line, a.Write)
	s.l1.Insert(line, a.Write)

	s.charge(a, now, wait, covered, inL2)

	for _, c := range s.p.Trigger(ev) {
		s.insertPrefetch(c, now)
	}
	// Metadata traffic the prefetcher recorded this step (HT/IT/EIT reads
	// and writes) occupies the shared bus; it does not stall this core —
	// recording is off the critical path (Section III-B) — but it delays
	// everyone's subsequent transfers.
	if s.bus != nil {
		meta := s.meter.Bytes(dram.MetadataRead) + s.meter.Bytes(dram.MetadataUpdate)
		for s.metaCharged+mem.LineSize <= meta {
			s.bus.Acquire(s.Now(), mem.LineSize)
			s.metaCharged += mem.LineSize
		}
	}
}

// charge adds the miss's stall to the penalty under the interval rules.
func (s *Simulator) charge(a mem.Access, now, wait uint64, covered, inL2 bool) {
	var stall uint64
	switch {
	case a.Dependent:
		// A dependent miss issues only when its producer's data is
		// back. Because now already includes the penalties charged for
		// earlier misses, the producer's wait is not double counted:
		// the chain serialises at one latency per uncovered link, and
		// a covered link whose block has arrived is free.
		end := now + wait
		if s.lastMissEnd > end {
			end = s.lastMissEnd
		}
		stall = end - now
		s.groupStart = now
		s.startGroup(end)
	case s.instrs < s.leaderInstr+uint64(s.mc.ROBEntries) &&
		s.groupStart+(s.instrs-s.leaderInstr)/uint64(s.mc.IssueWidth) < s.leaderEnd:
		// Within the ROB window of a still-outstanding group leader:
		// independent misses overlap; the follower issues at its fetch
		// offset from the group start, and only latency beyond the
		// group's window is exposed.
		issue := s.groupStart + (s.instrs-s.leaderInstr)/uint64(s.mc.IssueWidth)
		end := issue + wait
		if end > s.leaderEnd {
			stall = end - s.leaderEnd
			s.leaderEnd = end
		}
		if end > s.lastMissEnd {
			s.lastMissEnd = end
		}
	default:
		// New group leader: pays its full latency.
		stall = wait
		s.groupStart = now
		s.startGroup(now + wait)
	}
	s.penalty += stall
	switch {
	case covered:
		s.res.PenaltyCovered += stall
	case inL2:
		s.res.PenaltyUncovL2 += stall
	default:
		s.res.PenaltyUncovMem += stall
	}
}

func (s *Simulator) startGroup(end uint64) {
	s.leaderInstr = s.instrs
	s.leaderEnd = end
	if end > s.lastMissEnd {
		s.lastMissEnd = end
	}
}

func (s *Simulator) insertPrefetch(c prefetch.Candidate, now uint64) {
	if s.l1.Contains(c.Line) {
		return
	}
	if s.buf.contains(c.Line) {
		return
	}
	lat := s.memLat
	if s.l2.Contains(c.Line) {
		lat = uint64(s.mc.L2HitCycles)
	} else {
		// The timing model classes all prefetch fills optimistically;
		// the trace-based evaluator owns the useful/wrong split.
		s.meter.RecordBlock(dram.PrefetchUseful)
		if s.bus != nil {
			lat += s.bus.Acquire(now, mem.LineSize)
		}
	}
	ready := now + uint64(c.Delay)*s.memLat + lat
	s.buf.insert(c.Line, ready)
}

// Fetch returns the core's current cycle; the multicore scheduler advances
// the core that is furthest behind.
func (s *Simulator) Fetch() uint64 { return s.Now() }

// Retire returns the core's current cycle (alias of Now for the interval
// model).
func (s *Simulator) Retire() uint64 { return s.Now() }

// Finish returns the accumulated result.
func (s *Simulator) Finish() *Result {
	s.res.Cycles = s.Now()
	return &s.res
}

// Run simulates the whole trace. warmup accesses are replayed first and
// excluded from the cycle and instruction counts.
func Run(tr trace.Reader, mc config.Machine, p prefetch.Prefetcher, meter *dram.Meter, warmup int) *Result {
	s := New(mc, p, meter)
	n := 0
	for {
		a, ok := tr.Next()
		if !ok {
			break
		}
		s.Step(a)
		n++
		if n == warmup {
			s.resetMeasurement()
		}
	}
	return s.Finish()
}

// resetMeasurement rebases the cycle accounting at the warmup boundary
// while keeping all warm state: caches, buffer contents (rebased), and the
// prefetcher's accumulated history.
func (s *Simulator) resetMeasurement() {
	base := s.Now()
	sub := func(v uint64) uint64 {
		if v > base {
			return v - base
		}
		return 0
	}
	s.buf.rebase(base)
	s.leaderEnd = sub(s.leaderEnd)
	s.groupStart = sub(s.groupStart)
	s.lastMissEnd = sub(s.lastMissEnd)
	s.leaderInstr = 0
	s.instrs = 0
	s.penalty = 0
	s.meter.Reset()
	s.metaCharged = 0
	s.res = Result{Prefetcher: s.res.Prefetcher, Meter: s.meter}
}
