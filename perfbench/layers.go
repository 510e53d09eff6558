package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"domino/internal/config"
	"domino/internal/dram"
	"domino/internal/experiments"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/sequitur"
	"domino/internal/timing"
	"domino/internal/trace"
	"domino/internal/workload"
)

// Chunking and sampling of the traced pass. Hot calls are timed in chunks
// (generation, decode, Sequitur, sessions) or one call in triggerSample
// (Trigger), so that timing them costs little next to the calls.
const (
	chunk         = 4096
	triggerSample = 64
	// allocEvents is how many of a cell's triggering events are recorded
	// and replayed into a fresh prefetcher to count its allocations.
	allocEvents = 1 << 16
)

// modules maps each evaluated prefetcher onto the package implementing it.
var modules = map[string]string{"vldp": "vldp", "isb": "isb", "stms": "stms", "digram": "digram", "domino": "core"}

// span is one traced interval: a layer call, a chunk of calls, or one
// sampled call standing for Weight calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Weight int    `json:"weight,omitempty"`
}

// tracer keeps spans in memory; write dumps them at the end of the run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time, weight int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Weight: weight})
	return id
}

// open starts a span whose children need its id before it ends.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.record(name, parent, now, now, 0)
}

// close ends a span opened with open and returns its duration.
func (t *tracer) close(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// selfTime returns each span name's total duration minus the time its
// children cover, a sampled child covering Weight times its own duration.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			covered[s.Parent] += (s.End - s.Start) * int64(max(s.Weight, 1))
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// triggerStats accumulates one module's prefetcher calls.
type triggerStats struct {
	calls, candidates      int64
	sampled                int64
	sampledNS              int64
	allocs, allocsReplayed float64
}

// tracedPrefetcher wraps a prefetcher from experiments.Build: it counts
// every Trigger, times one in triggerSample as a span under the cell, and
// records the first allocEvents events for the allocation replay.
type tracedPrefetcher struct {
	inner  prefetch.Prefetcher
	st     *triggerStats
	t      *tracer
	parent int
	name   string
	events []prefetch.Event
	calls  int64
	// sampledNS over sampled is this cell's mean trigger time.
	sampled, sampledNS int64
}

func (p *tracedPrefetcher) Name() string { return p.inner.Name() }

func (p *tracedPrefetcher) Trigger(ev prefetch.Event) []prefetch.Candidate {
	p.calls++
	if len(p.events) < allocEvents {
		p.events = append(p.events, ev)
	}
	var cs []prefetch.Candidate
	if p.calls%triggerSample == 0 {
		t0 := time.Now()
		cs = p.inner.Trigger(ev)
		t1 := time.Now()
		p.sampled++
		p.sampledNS += t1.Sub(t0).Nanoseconds()
		p.t.record(p.name, p.parent, t0, t1, triggerSample)
	} else {
		cs = p.inner.Trigger(ev)
	}
	p.st.candidates += int64(len(cs))
	return cs
}

// estimate is the cell's total trigger time, extrapolated from the samples.
func (p *tracedPrefetcher) estimate() time.Duration {
	if p.sampled == 0 {
		return 0
	}
	return time.Duration(float64(p.sampledNS) / float64(p.sampled) * float64(p.calls))
}

// finish folds the cell into the module's totals.
func (p *tracedPrefetcher) finish() {
	p.st.calls += p.calls
	p.st.sampled += p.sampled
	p.st.sampledNS += p.sampledNS
}

// sink keeps replayed Trigger results alive so the calls are not elided.
var sink []prefetch.Candidate

// mallocs returns the process's cumulative heap allocations (objects).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerInput is one access stream the traced pass drives every layer with.
type layerInput struct {
	name   string
	params workload.Params // the generator the stream comes from
	n      int             // stream length
	// tracePath, when set, is the native trace of the stream written in
	// set-up; otherwise the pass writes one to decode.
	tracePath string
	stream    []mem.Access
	session   totals // the stream's serial session replay
}

// layerPlan is what a workload's traced pass runs.
type layerPlan struct {
	inputs        []layerInput
	degree, scale int
	warmup        func(n int) int
	// sweep runs the workload's engine sweep once with the observer.
	sweep func(obs *engineObs)
}

// layerRun accumulates the traced pass's measurements.
type layerRun struct {
	t        *tracer
	plan     layerPlan
	dir      string
	m        map[string]float64
	triggers map[string]*triggerStats

	genN, decodeN, l1N, l1Miss, seqN, sessN int64
	genAllocs, seqAllocs, seqRules          float64
	evalN, timingN, timingNoneN             int64
	evalSelf, timingSelf                    time.Duration
	timingNoneAllocs                        float64
	used, issued                            map[string]uint64
	ipc                                     map[string][]float64
	tracedCells, plainCells                 time.Duration
	cellsCompared, cellsDiffered            int
}

// runLayers drives every layer over the plan's inputs with spans around
// each call and returns the per-layer metrics, plus how many cells were
// compared traced-against-plain and how many differed.
func runLayers(plan layerPlan, dir string, t *tracer) (map[string]float64, int, int, error) {
	r := &layerRun{t: t, plan: plan, dir: dir, m: make(map[string]float64),
		triggers: make(map[string]*triggerStats), used: make(map[string]uint64),
		issued: make(map[string]uint64), ipc: make(map[string][]float64)}
	for _, mod := range modules {
		r.triggers[mod] = &triggerStats{}
	}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	gc0, cpu0, alloc0 := samples[0].Value.Float64(), samples[1].Value.Float64(), samples[2].Value.Uint64()

	root := t.open("pass", 0)
	for i := range plan.inputs {
		if err := r.input(&plan.inputs[i], root); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := r.serverPass(root); err != nil {
		return nil, 0, 0, err
	}
	r.enginePass(root)
	t.close(root)

	metrics.Read(samples)
	gc1, cpu1, alloc1 := samples[0].Value.Float64(), samples[1].Value.Float64(), samples[2].Value.Uint64()
	r.m["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	r.m["runtime.alloc_mb"] = float64(alloc1-alloc0) / 1e6
	r.summarize()
	return r.m, r.cellsCompared, r.cellsDiffered, nil
}

// input runs every per-access layer over one input stream.
func (r *layerRun) input(in *layerInput, root int) error {
	t := r.t
	top := t.open("input:"+in.name, root)
	defer t.close(top)

	// workload: Generator.Next in chunks.
	a0 := mallocs()
	g := workload.New(in.params)
	in.stream = make([]mem.Access, in.n)
	for lo := 0; lo < in.n; lo += chunk {
		t0 := time.Now()
		for i := lo; i < min(lo+chunk, in.n); i++ {
			in.stream[i], _ = g.Next()
		}
		t.record("workload.next", top, t0, time.Now(), 0)
	}
	r.genAllocs += float64(mallocs() - a0)
	r.genN += int64(in.n)

	// trace: decode the stream's native trace with OpenStream + Next.
	path := in.tracePath
	if path == "" {
		path = filepath.Join(r.dir, "layer.trc")
		if err := writeStream(path, in.stream); err != nil {
			return err
		}
	}
	t0 := time.Now()
	st, err := trace.OpenStream(path)
	if err != nil {
		return err
	}
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	st.Close()
	t.record("trace.decode", top, t0, time.Now(), 0)
	if err := st.Err(); err != nil {
		return err
	}
	if n != in.n {
		return fmt.Errorf("%s: decoded %d accesses, wrote %d", path, n, in.n)
	}
	r.decodeN += int64(n)

	// cache: the L1-D filter alone.
	t0 = time.Now()
	lines := prefetch.MissLines(sliceReader(in.stream), prefetch.DefaultEvalConfig())
	t.record("cache.l1", top, t0, time.Now(), 0)
	r.l1N += int64(in.n)
	r.l1Miss += int64(len(lines))

	// sequitur: Append over the miss symbols, in chunks.
	a0 = mallocs()
	gr := sequitur.New()
	for lo := 0; lo < len(lines); lo += chunk {
		t0 := time.Now()
		for _, l := range lines[lo:min(lo+chunk, len(lines))] {
			gr.Append(uint64(l))
		}
		t.record("sequitur.append", top, t0, time.Now(), 0)
	}
	r.seqAllocs += float64(mallocs() - a0)
	r.seqN += int64(len(lines))
	r.seqRules += float64(gr.Rules())
	gr = nil // the grammar is large; let the cells below reuse its memory

	// prefetch evaluator and timing model, one cell per series.
	warm := r.plan.warmup(in.n)
	for _, name := range experiments.PrefetcherNames {
		r.evalCell(in, name, warm, top)
	}
	for _, name := range append([]string{"none"}, experiments.PrefetcherNames...) {
		r.timingCell(in, name, warm, top)
	}

	return nil
}

func sliceReader(s []mem.Access) trace.Reader {
	return (&trace.Trace{Accesses: s}).Reader()
}

// wrap builds a named prefetcher and its traced wrapper.
func (r *layerRun) wrap(name string, meter *dram.Meter, degree, parent int) *tracedPrefetcher {
	mod := modules[name]
	return &tracedPrefetcher{inner: experiments.Build(name, degree, meter, r.plan.scale),
		st: r.triggers[mod], t: r.t, parent: parent, name: mod + ".trigger"}
}

// plainSeries is the series whose cells also run plain, untraced, right
// after the traced run: the traced/plain wall-time ratio is
// traced.overhead_frac, and the two results must be identical. Domino's
// cells make the most Trigger calls, so they show the most overhead.
const plainSeries = "domino"

// evalCell runs one trace-based cell (prefetch.RunWarm, as Fig. 11/13
// cells do) traced (and plain, for plainSeries), and replays the recorded events into a fresh
// prefetcher to count Trigger's allocations.
func (r *layerRun) evalCell(in *layerInput, name string, warm, parent int) {
	cell := r.t.open("prefetch.cell", parent)
	meter := &dram.Meter{}
	cfg := prefetch.DefaultEvalConfig()
	cfg.Meter = meter
	p := r.wrap(name, meter, r.plan.degree, cell)
	res := prefetch.RunWarm(sliceReader(in.stream), p, cfg, warm)
	d := r.t.close(cell)
	p.finish()
	r.evalSelf += d - p.estimate()
	r.evalN += int64(in.n)
	r.used[name] += res.Used
	r.issued[name] += res.Issued
	if name == plainSeries {
		r.tracedCells += d
		pm := &dram.Meter{}
		pcfg := prefetch.DefaultEvalConfig()
		pcfg.Meter = pm
		t0 := time.Now()
		plain := prefetch.RunWarm(sliceReader(in.stream), experiments.Build(name, r.plan.degree, pm, r.plan.scale), pcfg, warm)
		r.plainCells += time.Since(t0)
		r.compare(res, plain)
	}

	fresh := experiments.Build(name, r.plan.degree, &dram.Meter{}, r.plan.scale)
	a0 := mallocs()
	for _, ev := range p.events {
		sink = fresh.Trigger(ev)
	}
	p.st.allocs += float64(mallocs() - a0)
	p.st.allocsReplayed += float64(len(p.events))
}

// timingCell runs one timing-model cell (timing.Run, as Fig. 14 cells do)
// traced (and plain, for plainSeries). The baseline ("none") cell is not wrapped; its
// allocations are the timing model's own.
func (r *layerRun) timingCell(in *layerInput, name string, warm, parent int) {
	mc := config.DefaultMachine().ScaleLLCForTrace(r.plan.scale)
	// The plain run goes first here and second in evalCell, so a drift in
	// host speed does not bias traced.overhead_frac one way.
	var plain *timing.Result
	if name == plainSeries {
		pm := &dram.Meter{}
		t0 := time.Now()
		plain = timing.Run(sliceReader(in.stream), mc, experiments.Build(name, 4, pm, r.plan.scale), pm, warm)
		r.plainCells += time.Since(t0)
	}
	cell := r.t.open("timing.cell", parent)
	meter := &dram.Meter{}
	var (
		p   prefetch.Prefetcher = prefetch.Null{}
		tp  *tracedPrefetcher
		res *timing.Result
	)
	if name != "none" {
		tp = r.wrap(name, meter, 4, cell)
		p = tp
	}
	a0 := mallocs()
	res = timing.Run(sliceReader(in.stream), mc, p, meter, warm)
	allocs := mallocs() - a0
	d := r.t.close(cell)
	self := d
	if tp != nil {
		tp.finish()
		self -= tp.estimate()
	} else {
		r.timingNoneAllocs += float64(allocs)
		r.timingNoneN += int64(in.n)
	}
	r.timingSelf += self
	r.timingN += int64(in.n)
	r.ipc[name] = append(r.ipc[name], res.IPC())
	if plain != nil {
		r.tracedCells += d
		r.compare(res, plain)
	}
}

// compare counts a traced cell whose result differs from the plain cell's.
func (r *layerRun) compare(traced, plain any) {
	r.cellsCompared++
	a, err1 := json.Marshal(traced)
	b, err2 := json.Marshal(plain)
	if err1 != nil || err2 != nil || string(a) != string(b) {
		r.cellsDiffered++
	}
}

// sessionReplay drives one prefetch.Session, built as the server builds a
// tenant's, over the input in serve-sized batches, and keeps its totals.
func (r *layerRun) sessionReplay(in *layerInput, parent int) {
	cfg := prefetch.DefaultEvalConfig()
	cfg.BufferBlocks = serveBuffer
	sess := prefetch.NewSession(experiments.Build("domino", serveDegree, nil, serveScale), cfg)
	for lo := 0; lo < in.n; lo += serveBatch {
		t0 := time.Now()
		for _, a := range in.stream[lo:min(lo+serveBatch, in.n)] {
			out := sess.Access(a)
			in.session.Accesses++
			if out.Triggered {
				if out.Hit {
					in.session.Hits++
				} else {
					in.session.Misses++
				}
			}
			in.session.Prefetches += uint64(len(out.Prefetched))
		}
		r.t.record("serve.session", parent, t0, time.Now(), 0)
	}
	r.sessN += int64(in.n)
}

// serverPass serves every input as one tenant through a fresh server in
// the closed loop, timing each Submit call and each batch, and checks each
// tenant's totals against the input's serial session replay.
func (r *layerRun) serverPass(root int) error {
	// Both passes start from a collected heap, so that garbage left by the
	// cells above is not collected during one of them only.
	runtime.GC()
	var streams [][]mem.Access
	for i := range r.plan.inputs {
		in := &r.plan.inputs[i]
		r.sessionReplay(in, root)
		streams = append(streams, in.stream)
	}
	runtime.GC()
	var (
		mu         sync.Mutex
		waits, lat []float64
	)
	sp := r.t.open("serve.pass", root)
	round, err := replayServer(streams, &lat, func(d time.Duration) {
		mu.Lock()
		waits = append(waits, ms(d))
		mu.Unlock()
	})
	r.t.close(sp)
	if err != nil {
		return err
	}
	for i, in := range r.plan.inputs {
		batches := (in.n + serveBatch - 1) / serveBatch
		r.cellsCompared += batches
		if round.perTenant[i] != in.session {
			r.cellsDiffered += batches
		} else {
			r.cellsDiffered += round.errBatch[i]
		}
	}
	sort.Float64s(waits)
	r.m["serve.submit_wait_ms.p50"] = nearestRank(waits, 50)
	r.m["serve.submit_wait_ms.p99"] = nearestRank(waits, 99)
	// Session.Access time of the served accesses, at the serial session
	// rate measured above, over the summed batch times; lat leaves out
	// each tenant's first batch, so scale it to all batches.
	var served int64
	for _, s := range streams {
		served += int64(len(s))
	}
	var batchMS float64
	for _, l := range lat {
		batchMS += l
	}
	batchMS *= float64(len(waits)) / float64(len(lat))
	r.m["serve.overhead_frac"] = 1 - float64(served)*r.sessionNS()/1e6/batchMS
	return nil
}

func (r *layerRun) sessionNS() float64 {
	return float64(r.t.selfTime()["serve.session"].Nanoseconds()) / float64(r.sessN)
}

// enginePass runs the workload's sweep once under an observer.
func (r *layerRun) enginePass(root int) {
	obs := newEngineObs()
	sp := r.t.open("engine.sweep", root)
	r.plan.sweep(obs)
	wall := r.t.close(sp)
	secs := make([]float64, len(obs.cells))
	var busy time.Duration
	for i, d := range obs.cells {
		secs[i] = d.Seconds()
		busy += d
	}
	sort.Float64s(secs)
	r.m["engine.cell_s.p50"] = nearestRank(secs, 50)
	r.m["engine.cell_s.max"] = secs[len(secs)-1]
	workers := len(obs.workers)
	r.m["engine.worker_idle_frac"] = 1 - busy.Seconds()/(float64(workers)*wall.Seconds())
}

func (r *layerRun) summarize() {
	self := r.t.selfTime()
	per := func(name string, n int64) float64 { return float64(self[name].Nanoseconds()) / float64(n) }
	r.m["workload.ns_per_access"] = per("workload.next", r.genN)
	r.m["workload.allocs_per_access"] = r.genAllocs / float64(r.genN)
	r.m["trace.decode_ns_per_access"] = per("trace.decode", r.decodeN)
	r.m["cache.l1_ns_per_access"] = per("cache.l1", r.l1N)
	r.m["cache.l1_miss_ratio"] = float64(r.l1Miss) / float64(r.l1N)
	r.m["sequitur.ns_per_symbol"] = per("sequitur.append", r.seqN)
	r.m["sequitur.allocs_per_symbol"] = r.seqAllocs / float64(r.seqN)
	r.m["sequitur.rules"] = r.seqRules
	r.m["prefetch.eval_ns_per_access"] = float64(r.evalSelf.Nanoseconds()) / float64(r.evalN)
	r.m["timing.step_ns_per_access"] = float64(r.timingSelf.Nanoseconds()) / float64(r.timingN)
	r.m["timing.allocs_per_access"] = r.timingNoneAllocs / float64(r.timingNoneN)
	r.m["serve.session_ns_per_access"] = r.sessionNS()
	for _, name := range experiments.PrefetcherNames {
		r.m["prefetch.accuracy."+name] = float64(r.used[name]) / float64(max(r.issued[name], 1))
		st := r.triggers[modules[name]]
		mod := modules[name]
		r.m[mod+".trigger_ns"] = float64(st.sampledNS) / float64(max(st.sampled, 1))
		r.m[mod+".triggers"] = float64(st.calls)
		r.m[mod+".allocs_per_trigger"] = st.allocs / max(st.allocsReplayed, 1)
		r.m[mod+".candidates_per_trigger"] = float64(st.candidates) / float64(max(st.calls, 1))
	}
	for _, name := range append([]string{"none"}, experiments.PrefetcherNames...) {
		var sum float64
		for _, v := range r.ipc[name] {
			sum += v
		}
		r.m["timing.ipc."+name] = sum / float64(len(r.ipc[name]))
	}
	r.m["traced.overhead_frac"] = r.tracedCells.Seconds()/r.plainCells.Seconds() - 1
}

// tracedRun sets up once, runs the traced pass, checks every result it
// produced, and writes the spans to spanDir.
func tracedRun(b bench, name string, seed int64, dir, spanDir string) (result, error) {
	if err := b.setup(seed, dir); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plan := layerPlanFor(b, seed)
	t := newTracer()
	m, compared, differed, err := runLayers(plan, dir, t)
	if err != nil {
		return result{}, err
	}
	attempted, failed := b.verify()
	attempted += compared
	failed += differed
	if err := t.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		return result{}, err
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return result{}, fmt.Errorf("traced pass did not measure %s", l.name)
		}
		out.Metrics[l.name] = metric{v, l.unit}
	}
	return out, nil
}

// layerPlanFor gives each workload's traced pass its inputs: fig14's two
// Table II streams, trace-fig11's recorded trace, serve's tenant streams.
// The engine pass is the workload's own sweep, appended to its rounds so
// verify checks it; serve's engine pass is a Fig. 11 sweep over its first
// tenant's stream.
func layerPlanFor(b bench, seed int64) layerPlan {
	half := func(n int) int { return n / 2 }
	switch w := b.(type) {
	case *sweep:
		plan := layerPlan{scale: sweepScale, warmup: half, degree: 4}
		if w.name == "fig14" {
			for _, n := range fig14Workloads {
				plan.inputs = append(plan.inputs, layerInput{name: n, params: workload.ByName(n), n: sweepAccesses})
			}
		} else {
			plan.degree = 1
			plan.inputs = []layerInput{{name: "websearch", params: traceParams(seed), n: sweepAccesses, tracePath: w.tracePath}}
		}
		plan.sweep = func(obs *engineObs) {
			o := w.opts
			o.Observer = obs
			w.rounds = append(w.rounds, w.run(context.Background(), o))
		}
		return plan
	case *serveBench:
		plan := layerPlan{scale: serveScale, warmup: half, degree: serveDegree}
		for i := range w.streams {
			plan.inputs = append(plan.inputs, layerInput{name: tenantName(i), params: tenantParams(seed, i), n: serveStreamLen})
		}
		plan.sweep = func(obs *engineObs) {
			o := experiments.Options{Accesses: serveStreamLen, Warmup: serveStreamLen / 2, Scale: serveScale, Observer: obs,
				ExternalTrace: &trace.Trace{Accesses: w.streams[0]}, ExternalTraceName: tenantName(0)}
			experiments.Comparison(context.Background(), o, serveDegree, true)
		}
		return plan
	}
	panic(fmt.Sprintf("no layer plan for %T", b))
}
