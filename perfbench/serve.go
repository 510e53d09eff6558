package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"domino/internal/core"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/serve"
	"domino/internal/trace"
	"domino/internal/workload"
)

// The serve workload: a closed loop of serveClients client goroutines,
// each owning every serveClients-th tenant and cycling through its
// tenants one batch at a time, waiting for each reply before the next
// Submit. Tenant streams are generated in set-up, so clients do no
// generation while timed.
const (
	serveTenants   = 8 // below MaxTenantsPerShard, so no session is evicted
	serveClients   = 2
	serveShards    = 2
	serveScale     = 64
	serveDegree    = 4
	serveBatch     = 2048
	serveStreamLen = 128 * serveBatch
	// serveWarmBatches of each tenant per round are left out of the
	// latency samples: the first pays for building the tenant's session.
	serveWarmBatches = 1
	serveBuffer      = 32 // prefetch-buffer blocks per session, the paper's size
)

// serveConfig is the core server configuration: ungoverned, no chaos,
// default queue depth and tenant cap.
func serveConfig() serve.Config {
	return serve.Config{Shards: serveShards, Prefetcher: "domino", Scale: serveScale, Degree: serveDegree, BufferBlocks: serveBuffer}
}

// tenantParams gives tenant i of a seed its generator: the Table II
// workloads in figure order, each with a seed derived from the run's.
func tenantParams(seed int64, i int) workload.Params {
	p := workload.ByName(workload.Names[i%len(workload.Names)])
	p.Seed = seed*1_000_003 + int64(i) + 1
	return p
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// serveStreams generates every tenant's stream for a seed.
func serveStreams(seed int64) [][]mem.Access {
	out := make([][]mem.Access, serveTenants)
	for i := range out {
		out[i] = trace.Collect(trace.Limit(workload.New(tenantParams(seed, i)), serveStreamLen), serveStreamLen).Accesses
	}
	return out
}

// totals are one tenant's (or a whole round's) served counts.
type totals struct {
	Accesses, Hits, Misses, Prefetches uint64
}

func (t *totals) add(o totals) {
	t.Accesses += o.Accesses
	t.Hits += o.Hits
	t.Misses += o.Misses
	t.Prefetches += o.Prefetches
}

func (t totals) String() string {
	return fmt.Sprintf("accesses=%d hits=%d misses=%d prefetches=%d", t.Accesses, t.Hits, t.Misses, t.Prefetches)
}

// hitRate is covered misses over L1 misses, as dominoserve reports it.
func (t totals) hitRate() float64 {
	if t.Hits+t.Misses == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Hits+t.Misses)
}

type serveRound struct {
	perTenant []totals
	errBatch  []int
}

type serveBench struct {
	seed    int64
	streams [][]mem.Access
	rounds  []serveRound
}

func (s *serveBench) setup(seed int64, _ string) error {
	s.seed = seed
	s.streams = serveStreams(seed)
	return nil
}

// warm runs one untimed round so the first timed round does not pay for
// heap growth.
func (s *serveBench) warm() error {
	_, err := replayServer(s.streams, nil, nil)
	return err
}

func (s *serveBench) round() roundOut {
	var lat []float64
	r, err := replayServer(s.streams, &lat, nil)
	out := roundOut{accesses: serveTenants * serveStreamLen, ops: serveTenants * serveStreamLen / serveBatch, latencies: lat}
	if err == nil {
		s.rounds = append(s.rounds, r)
	} else {
		out.err = err
	}
	return out
}

// replayServer serves each stream as one tenant through a freshly started
// server, so sessions start cold and the totals repeat exactly. Client c
// owns every serveClients-th tenant and submits one batch per tenant in
// turn, waiting for each reply (a closed loop). lat, when non-nil,
// receives each post-warm-up batch's Submit-to-reply time in ms; onSubmit,
// when non-nil, each Submit call's own duration.
func replayServer(streams [][]mem.Access, lat *[]float64, onSubmit func(time.Duration)) (serveRound, error) {
	r := serveRound{perTenant: make([]totals, len(streams)), errBatch: make([]int, len(streams))}
	srv, err := serve.New(serveConfig())
	if err != nil {
		return r, err
	}
	srv.Start()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make([]error, serveClients)
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reply := make(chan serve.Result, 1)
			var mine []float64
			for b := 0; ; b++ {
				sent := false
				for t := c; t < len(streams); t += serveClients {
					lo := b * serveBatch
					if lo >= len(streams[t]) {
						continue
					}
					batch := streams[t][lo:min(lo+serveBatch, len(streams[t]))]
					sent = true
					t0 := time.Now()
					if err := srv.Submit(context.Background(), serve.Batch{Tenant: tenantName(t), Accesses: batch, Reply: reply}); err != nil {
						errs[c] = err
						return
					}
					if onSubmit != nil {
						onSubmit(time.Since(t0))
					}
					res := <-reply
					if d := time.Since(t0); b >= serveWarmBatches {
						mine = append(mine, ms(d))
					}
					// Each client owns its tenants, so these slots are
					// written by one goroutine only.
					if res.Err != nil {
						r.errBatch[t]++
						continue
					}
					r.perTenant[t].add(totals{uint64(res.Accesses), uint64(res.Hits), uint64(res.Misses), uint64(len(res.Prefetched))})
				}
				if !sent {
					break
				}
			}
			if lat != nil {
				mu.Lock()
				*lat = append(*lat, mine...)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Drain(context.Background()); err != nil {
		return r, err
	}
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

// sessionReference replays one tenant stream through a single
// prefetch.Session built as the server builds a tenant's session.
func sessionReference(stream []mem.Access) totals {
	cfg := prefetch.DefaultEvalConfig()
	cfg.BufferBlocks = serveBuffer
	sess := prefetch.NewSession(core.New(core.ScaledConfig(serveDegree, serveScale), nil), cfg)
	var t totals
	for _, a := range stream {
		out := sess.Access(a)
		t.Accesses++
		if out.Triggered {
			if out.Hit {
				t.Hits++
			} else {
				t.Misses++
			}
		}
		t.Prefetches += uint64(len(out.Prefetched))
	}
	return t
}

func (r serveRound) total() totals {
	var t totals
	for _, x := range r.perTenant {
		t.add(x)
	}
	return t
}

func (s *serveBench) modelResult() float64 {
	if len(s.rounds) == 0 {
		return 0
	}
	return s.rounds[0].total().hitRate()
}

// verify checks every round's per-tenant totals against a serial replay of
// the same stream through one prefetch.Session, and, for pinned seeds, the
// reference totals against the pins. Every batch of a tenant whose totals
// differ counts as failed, as does every batch answered with an error.
func (s *serveBench) verify() (attempted, failed int) {
	perTenant := serveStreamLen / serveBatch
	ref := make([]totals, len(s.streams))
	var all totals
	for i, st := range s.streams {
		ref[i] = sessionReference(st)
		all.add(ref[i])
	}
	if p, ok := pins.Serve[fmt.Sprint(s.seed)]; ok {
		attempted++
		if p.Text != all.String() || p.Digest != digest(all.String()) || p.Model != all.hitRate() {
			failed++
		}
	}
	for _, r := range s.rounds {
		for t := range ref {
			attempted += perTenant
			if r.perTenant[t] != ref[t] {
				failed += perTenant
			} else {
				failed += r.errBatch[t]
			}
		}
	}
	return attempted, failed
}
