package experiments

import (
	"reflect"
	"testing"

	"domino/internal/config"
	"domino/internal/dram"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/timing"
	"domino/internal/workload"
)

// scribbler enforces the prefetch.Prefetcher ownership rule on whatever
// drives it: before each Trigger call it overwrites every slot of the
// slice the previous call returned, up to its capacity. A caller that
// kept the previous candidates past the next call — or a prefetcher that
// read its own returned slice back — would see the scribbled values.
type scribbler struct {
	inner prefetch.Prefetcher
	prev  []prefetch.Candidate
}

func (s *scribbler) Name() string { return s.inner.Name() }

func (s *scribbler) Trigger(ev prefetch.Event) []prefetch.Candidate {
	full := s.prev[:cap(s.prev)]
	for i := range full {
		full[i] = prefetch.Candidate{Line: ^mem.Line(i), Tag: "scribbled", Delay: 1 << 20}
	}
	s.prev = s.inner.Trigger(ev)
	return s.prev
}

// ownershipNames is every name experiments.Build accepts.
func ownershipNames() []string {
	return append(append([]string(nil), PrefetcherNames...), "none", "stride", "markov", "ghb", "vldp+domino")
}

// TestTriggerOwnershipRule requires the trace-based evaluator
// (prefetch.RunWarm), the timing model (timing.Run) and a per-access
// prefetch.Session to produce identical results whether or not every
// returned candidate slice is scribbled over on the next call, for every
// prefetcher experiments.Build constructs, the vldp+domino Stack included.
func TestTriggerOwnershipRule(t *testing.T) {
	const degree, scale, warmup = 4, 128, 10_000
	o := Options{Accesses: 30_000, Scale: scale}
	wp := workload.ByName("OLTP")
	build := func(name string, meter *dram.Meter, wrap bool) prefetch.Prefetcher {
		p := Build(name, degree, meter, scale)
		if wrap {
			return &scribbler{inner: p}
		}
		return p
	}

	for _, name := range ownershipNames() {
		t.Run(name, func(t *testing.T) {
			eval := func(wrap bool) *prefetch.Result {
				cfg := prefetch.DefaultEvalConfig()
				cfg.Meter = &dram.Meter{}
				return prefetch.RunWarm(o.trace(wp), build(name, cfg.Meter, wrap), cfg, warmup)
			}
			if plain, wrapped := eval(false), eval(true); !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("RunWarm diverged under scribbling:\n plain   %v\n wrapped %v", plain, wrapped)
			}

			mc := config.DefaultMachine().ScaleLLCForTrace(scale)
			tim := func(wrap bool) *timing.Result {
				meter := &dram.Meter{}
				return timing.Run(o.trace(wp), mc, build(name, meter, wrap), meter, warmup)
			}
			if plain, wrapped := tim(false), tim(true); !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("timing.Run diverged under scribbling:\n plain   %+v\n wrapped %+v", plain, wrapped)
			}

			cfg := prefetch.DefaultEvalConfig()
			cfg.Meter = &dram.Meter{}
			plain := prefetch.NewSession(build(name, cfg.Meter, false), cfg)
			wcfg := prefetch.DefaultEvalConfig()
			wcfg.Meter = &dram.Meter{}
			wrapped := prefetch.NewSession(build(name, wcfg.Meter, true), wcfg)
			tp, tw := o.trace(wp), o.trace(wp)
			for i := 0; ; i++ {
				a, ok := tp.Next()
				b, _ := tw.Next()
				if !ok {
					break
				}
				po, wo := plain.Access(a), wrapped.Access(b)
				if po.Triggered != wo.Triggered || po.Hit != wo.Hit || !reflect.DeepEqual(po.Prefetched, wo.Prefetched) {
					t.Fatalf("access %d: Session outcome %+v, scribbled %+v", i, po, wo)
				}
			}
			if ps, ws := plain.Stats(), wrapped.Stats(); ps != ws {
				t.Errorf("Session stats %+v, scribbled %+v", ps, ws)
			}
			if pr, wr := plain.Finish(), wrapped.Finish(); !reflect.DeepEqual(pr, wr) {
				t.Errorf("Session result %v, scribbled %v", pr, wr)
			}
		})
	}
}
