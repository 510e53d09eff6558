package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"domino"
	"domino/internal/config"
	"domino/internal/dram"
	"domino/internal/experiments"
	"domino/internal/mem"
	"domino/internal/prefetch"
	"domino/internal/timing"
	"domino/internal/trace"
	"domino/internal/workload"
)

// fakeBench is a workload whose rounds take a known time.
type fakeBench struct{ rounds int }

func (f *fakeBench) setup(int64, string) error { return nil }
func (f *fakeBench) warm() error               { return nil }
func (f *fakeBench) verify() (int, int)        { return 0, 0 }
func (f *fakeBench) modelResult() float64      { return 1 }
func (f *fakeBench) round() roundOut {
	f.rounds++
	time.Sleep(time.Duration(f.rounds) * time.Millisecond)
	lat := make([]float64, 2000)
	for i := range lat {
		lat[i] = float64(i)
	}
	return roundOut{accesses: 123_456, ops: len(lat), latencies: lat}
}

func TestAccessesPerSecondIsAccessesOverWall(t *testing.T) {
	r, err := timedRun(&fakeBench{}, 1, 50*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wall, aps := r.Metrics["wall_s"].Value, r.Metrics["accesses_per_s"].Value
	if got := aps * wall; math.Abs(got-123_456) > 1e-6 {
		t.Fatalf("accesses_per_s × wall_s = %v, want 123456", got)
	}
	for _, d := range endToEnd {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
	if len(r.Metrics) != len(endToEnd) {
		t.Errorf("timed run reports %d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
}

// bruteRank is the nearest-rank definition read literally: the smallest
// sample v with at least p% of the samples <= v.
func bruteRank(sorted []float64, p float64) float64 {
	for _, v := range sorted {
		n := 0
		for _, w := range sorted {
			if w <= v {
				n++
			}
		}
		if float64(n) >= p/100*float64(len(sorted)) {
			return v
		}
	}
	return sorted[len(sorted)-1]
}

func TestNearestRankMatchesSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 1234} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() // distinct with probability 1
		}
		sort.Float64s(xs)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			if got, want := nearestRank(xs, p), bruteRank(xs, p); got != want {
				t.Errorf("n=%d p%g: got %v, want %v", n, p, got, want)
			}
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{999, false}, {1000, true}, {1100, true}, {50, false}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, err := tailPercentile(xs, 99)
		if (err == nil) != c.ok {
			t.Errorf("n=%d: err=%v, want ok=%v", c.n, err, c.ok)
			continue
		}
		if c.ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyondTail {
				t.Errorf("n=%d: p99=%v has %d samples beyond", c.n, v, beyond)
			}
		}
	}
	if v, _ := batchTail([]float64{1, 3, 5}, []float64{4, 5, 9}, true); v != 5 {
		t.Errorf("batchTail with maxTail = %v, want the median slowest cell", v)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 2 M-access traces")
	}
	read := func(seed int64) []byte {
		dir := t.TempDir()
		s := newTraceFig11()
		if err := s.setup(seed, dir); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, traceFileName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := read(7), read(7), read(8)
	if !bytes.Equal(a, b) {
		t.Error("same seed wrote different traces")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds wrote the same trace")
	}
	s1, s2, s3 := serveStreams(7), serveStreams(7), serveStreams(8)
	enc := func(ss [][]mem.Access) []byte {
		var buf bytes.Buffer
		for _, s := range ss {
			if err := trace.Write(&buf, &trace.Trace{Accesses: s}); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(s1), enc(s2)) {
		t.Error("same seed gave different serve inputs")
	}
	if bytes.Equal(enc(s1), enc(s3)) {
		t.Error("different seeds gave the same serve inputs")
	}
}

func TestWrappedPrefetcherChangesNothing(t *testing.T) {
	const n, warm = 200_000, 100_000
	stream := trace.Collect(trace.Limit(workload.New(workload.ByName("OLTP")), n), n).Accesses
	r := &layerRun{t: newTracer(), plan: layerPlan{scale: 16}, triggers: map[string]*triggerStats{}}
	for _, mod := range modules {
		r.triggers[mod] = &triggerStats{}
	}
	mc := config.DefaultMachine().ScaleLLCForTrace(16)
	for _, name := range experiments.PrefetcherNames {
		for _, degree := range []int{1, 4} {
			m1, m2 := &dram.Meter{}, &dram.Meter{}
			c1, c2 := prefetch.DefaultEvalConfig(), prefetch.DefaultEvalConfig()
			c1.Meter, c2.Meter = m1, m2
			wrapped := r.wrap(name, m1, degree, 0)
			got := prefetch.RunWarm(sliceReader(stream), wrapped, c1, warm)
			want := prefetch.RunWarm(sliceReader(stream), experiments.Build(name, degree, m2, 16), c2, warm)
			if !sameJSON(t, got, want) {
				t.Errorf("%s degree %d: wrapped prefetch.Result differs", name, degree)
			}
			if wrapped.calls == 0 || wrapped.sampled == 0 {
				t.Errorf("%s: wrapper saw %d calls, %d sampled", name, wrapped.calls, wrapped.sampled)
			}
		}
		m1, m2 := &dram.Meter{}, &dram.Meter{}
		got := timing.Run(sliceReader(stream), mc, r.wrap(name, m1, 4, 0), m1, warm)
		want := timing.Run(sliceReader(stream), mc, experiments.Build(name, 4, m2, 16), m2, warm)
		if !sameJSON(t, got, want) {
			t.Errorf("%s: wrapped timing.Result differs", name)
		}
	}
}

func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	x, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(x, y)
}

func TestEngineSweepRendersAsFacade(t *testing.T) {
	o := domino.Options{Accesses: 60_000, Warmup: 30_000, Scale: 16}
	want, err := domino.RunExperimentFormat(domino.ExpFig14Speedup, o, domino.FormatTable, fig14Workloads...)
	if err != nil {
		t.Fatal(err)
	}
	s := newFig14()
	eo := s.baseOptions()
	eo.Accesses, eo.Warmup = o.Accesses, o.Warmup
	if got := s.run(context.Background(), eo).text; got != want {
		t.Errorf("engine rendering differs from the facade:\n%s\nwant:\n%s", got, want)
	}
}

func TestRoundFailuresCountsChangedCells(t *testing.T) {
	p := pins.Fig14
	good := sweepRound{text: p.Text, cells: p.Cells, model: p.Model}
	if n := roundFailures(good, &p, p.Text, 10); n != 0 {
		t.Fatalf("pinned round counts %d failures", n)
	}
	bad := sweepRound{text: p.Text, cells: map[string]float64{}, model: p.Model}
	for k, v := range p.Cells {
		bad.cells[k] = v
	}
	bad.cells["OLTP/domino"] += 1e-12
	if n := roundFailures(bad, &p, p.Text, 10); n != 1 {
		t.Errorf("one changed cell counts %d failures, want 1", n)
	}
	// Against a rendered reference only (an unpinned seed).
	text := strings.Replace(p.Text, "1.26", "1.27", 1)
	if n := roundFailures(sweepRound{text: text}, nil, p.Text, 10); n != 1 {
		t.Errorf("one changed rendered cell counts %d failures, want 1", n)
	}
}

func TestPinsCoverDevAndHeldOutSeeds(t *testing.T) {
	for _, seed := range []string{fmt.Sprint(devSeed), fmt.Sprint(heldOutSeed)} {
		for name, m := range map[string]map[string]pin{"trace-fig11": pins.TraceFig11, "serve": pins.Serve} {
			p, ok := m[seed]
			if !ok || p.Digest != digest(p.Text) || p.Model <= 0 {
				t.Errorf("%s seed %s: pin %+v", name, seed, p)
			}
		}
	}
	if pins.Fig14.Digest != digest(pins.Fig14.Text) || len(pins.Fig14.Cells) != 10 {
		t.Errorf("fig14 pin %+v", pins.Fig14)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if _, err := newBench(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the benchmark reports %d/%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		e := f.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := f.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, e, d)
		}
	}
}

func TestServerReplayMatchesSessions(t *testing.T) {
	streams := make([][]mem.Access, 3)
	for i := range streams {
		n := 3*serveBatch + 100*(i+1) // three full batches and a partial one
		streams[i] = trace.Collect(trace.Limit(workload.New(tenantParams(5, i)), n), n).Accesses
	}
	var lat []float64
	var waits atomic.Int64 // both clients call back
	r, err := replayServer(streams, &lat, func(time.Duration) { waits.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range streams {
		if want := sessionReference(s); r.perTenant[i] != want || r.errBatch[i] != 0 {
			t.Errorf("tenant %d: served %v (%d errors), want %v", i, r.perTenant[i], r.errBatch[i], want)
		}
	}
	// Every tenant has 4 batches; the first of each is warm-up.
	if waits.Load() != 12 || len(lat) != 9 {
		t.Errorf("%d submits and %d latency samples, want 12 and 9", waits.Load(), len(lat))
	}
}
