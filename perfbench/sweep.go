package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"domino"
	"domino/internal/experiments"
	"domino/internal/mem"
	"domino/internal/telemetry"
	"domino/internal/trace"
	"domino/internal/workload"
)

// Sweep sizes: the dominosim defaults (2 M accesses, half of them warmup,
// metadata tables scaled by 16). Parallelism 0 gives one engine worker per
// CPU, which is what a user gets from dominosim -j 0.
const (
	sweepAccesses = 2_000_000
	sweepWarmup   = 1_000_000
	sweepScale    = 16
)

// fig14Workloads are the two Table II workloads the fig14 sweep runs: OLTP
// (long streams, Domino speedup 1.26) and MapReduce-W (short streams, twice
// OLTP's footprint, Domino speedup 1.04).
var fig14Workloads = []string{"OLTP", "MapReduce-W"}

// traceParams is the generator the trace-fig11 workload records its trace
// from: the calibrated Web Search parameters with the seed overridden.
func traceParams(seed int64) workload.Params {
	p := workload.ByName("Web Search")
	p.Seed = seed
	return p
}

// traceFileName is the trace's base name; it labels the grid row, exactly
// as Options.TracePath does.
const traceFileName = "websearch.trc"

// sweepRound is what one sweep round left behind for the correctness check.
type sweepRound struct {
	text  string
	cells map[string]float64
	model float64
}

// sweep is a figure sweep on the experiment engine: fig14 (timing model on
// two Table II generators) or trace-fig11 (Fig. 11 on a recorded trace).
type sweep struct {
	name string
	seed int64

	// run executes the sweep once with the given engine options.
	run      func(ctx context.Context, o experiments.Options) sweepRound
	opts     experiments.Options
	cellsPer int   // rendered grid cells per round
	accesses int64 // accesses replayed per round (cells × per-cell accesses)

	tracePath string // trace-fig11 only
	rounds    []sweepRound
}

func newFig14() *sweep {
	s := &sweep{name: "fig14", cellsPer: len(fig14Workloads) * len(experiments.PrefetcherNames)}
	// Each workload runs a baseline cell and one cell per prefetcher.
	s.accesses = int64(len(fig14Workloads) * (1 + len(experiments.PrefetcherNames)) * sweepAccesses)
	s.run = func(ctx context.Context, o experiments.Options) sweepRound {
		r := experiments.Speedup(ctx, o, 4)
		return sweepRound{text: r.Speedup.String(), cells: gridCells("", r.Speedup), model: r.GMean["domino"]}
	}
	return s
}

func newTraceFig11() *sweep {
	// Five prefetcher cells plus Sequitur, which replays the trace once
	// through the L1 filter.
	s := &sweep{name: "trace-fig11", cellsPer: 2 * (len(experiments.PrefetcherNames) + 1)}
	s.accesses = int64((len(experiments.PrefetcherNames) + 1) * sweepAccesses)
	s.run = func(ctx context.Context, o experiments.Options) sweepRound {
		r := experiments.Comparison(ctx, o, 1, true)
		cells := gridCells("coverage:", r.Coverage)
		for k, v := range gridCells("overpred:", r.Overpredictions) {
			cells[k] = v
		}
		model, _ := r.Coverage.Lookup(traceFileName, "domino")
		return sweepRound{text: r.Coverage.String() + "\n" + r.Overpredictions.String(), cells: cells, model: model}
	}
	return s
}

// gridCells flattens a grid into "prefix workload/series" -> value.
func gridCells(prefix string, g *experiments.Grid) map[string]float64 {
	out := make(map[string]float64)
	for _, w := range g.Workloads() {
		for _, s := range g.Series() {
			if v, ok := g.Lookup(w, s); ok {
				out[prefix+w+"/"+s] = v
			}
		}
	}
	return out
}

func (s *sweep) baseOptions() experiments.Options {
	o := experiments.Options{Accesses: sweepAccesses, Warmup: sweepWarmup, Scale: sweepScale}
	if s.name == "fig14" {
		o.Workloads = fig14Workloads
	}
	return o
}

// setup builds the sweep's inputs. fig14 constructs its two Table II
// generators (the engine builds its own per cell; this is the only set-up
// the sweep has). trace-fig11 generates the seeded Web Search accesses,
// writes them as a native trace, and decodes the file back exactly as
// Options.TracePath does.
func (s *sweep) setup(seed int64, dir string) error {
	s.seed = seed
	s.opts = s.baseOptions()
	if s.name == "fig14" {
		for _, n := range fig14Workloads {
			workload.New(workload.ByName(n))
		}
		return nil
	}
	s.tracePath = filepath.Join(dir, traceFileName)
	if err := writeTrace(s.tracePath, traceParams(seed), sweepAccesses); err != nil {
		return err
	}
	t, err := loadTrace(s.tracePath, sweepAccesses)
	if err != nil {
		return err
	}
	s.opts.ExternalTrace = t
	s.opts.ExternalTraceName = traceFileName
	return nil
}

// writeTrace records n accesses of p's generator to path in the native
// format.
func writeTrace(path string, p workload.Params, n int) error {
	return writeStream(path, trace.Collect(trace.Limit(workload.New(p), n), n).Accesses)
}

// writeStream writes accesses to path as a native trace.
func writeStream(path string, s []mem.Access) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, &trace.Trace{Accesses: s}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// loadTrace decodes up to max accesses of a trace file, the way
// Options.TracePath loads one.
func loadTrace(path string, max int) (*trace.Trace, error) {
	st, err := trace.OpenStream(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	t := trace.Collect(trace.Limit(st, max), max)
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func (s *sweep) warm() error { return nil }

// engineObs is a JobObserver recording each engine cell's wall time and
// which workers ran cells.
type engineObs struct {
	mu      sync.Mutex
	cells   []time.Duration
	workers map[int]bool
}

func newEngineObs() *engineObs { return &engineObs{workers: make(map[int]bool)} }

func (o *engineObs) JobsQueued([]string)                              {}
func (o *engineObs) JobFailed(int, string, int, time.Duration, error) {}
func (o *engineObs) JobStarted(_ int, _ string, w int) {
	o.mu.Lock()
	o.workers[w] = true
	o.mu.Unlock()
}
func (o *engineObs) JobFinished(_ int, _ string, _ int, d time.Duration) {
	o.mu.Lock()
	o.cells = append(o.cells, d)
	o.mu.Unlock()
}

var _ telemetry.JobObserver = (*engineObs)(nil)

func (s *sweep) round() roundOut {
	obs := newEngineObs()
	o := s.opts
	o.Observer = obs
	s.rounds = append(s.rounds, s.run(context.Background(), o))
	out := roundOut{accesses: s.accesses, ops: s.cellsPer, maxTail: true}
	for _, d := range obs.cells {
		out.latencies = append(out.latencies, ms(d))
	}
	return out
}

func (s *sweep) modelResult() float64 {
	if len(s.rounds) == 0 {
		return 0
	}
	return s.rounds[0].model
}

// verify checks every round against the reference: the pins recorded for
// fig14 and for the pinned trace-fig11 seeds, and for trace-fig11 also the
// same figure rendered through the facade with Options.TracePath. A cell
// that differs is a failed operation.
func (s *sweep) verify() (attempted, failed int) {
	var ref *pin
	if s.name == "fig14" {
		ref = &pins.Fig14
	} else if p, ok := pins.TraceFig11[fmt.Sprint(s.seed)]; ok {
		ref = &p
	}
	refText := ""
	if ref != nil {
		refText = ref.Text
	}
	if s.name == "trace-fig11" {
		o := domino.DefaultOptions()
		o.TracePath = s.tracePath
		facade, err := domino.RunExperimentFormat(domino.ExpFig11Degree1, o, domino.FormatTable)
		attempted++
		switch {
		case err != nil:
			failed++
		case ref == nil:
			refText = facade
		case facade != refText:
			failed++
		}
	}
	for _, r := range s.rounds {
		attempted += s.cellsPer
		failed += roundFailures(r, ref, refText, s.cellsPer)
	}
	return attempted, failed
}

// roundFailures counts the cells of one round that differ from the
// reference: exactly against pinned values when there are pins, else by
// their rendering against refText. A differing rendering with no differing
// cell still counts once.
func roundFailures(r sweepRound, ref *pin, refText string, cells int) int {
	bad := 0
	if ref != nil {
		if len(r.cells) != len(ref.Cells) {
			return cells
		}
		for k, v := range ref.Cells {
			if got, ok := r.cells[k]; !ok || got != v {
				bad++
			}
		}
		if r.model != ref.Model {
			bad++
		}
	} else {
		got, want := renderedCells(r.text), renderedCells(refText)
		if len(got) != len(want) || len(want) != cells {
			return cells
		}
		for k, v := range want {
			if got[k] != v {
				bad++
			}
		}
	}
	if bad == 0 && digest(r.text) != digest(refText) {
		bad = 1
	}
	return min(bad, cells)
}

// renderedCells parses Grid.String output into "grid#workload/series" ->
// rendered value, skipping titles and the Mean row.
func renderedCells(text string) map[string]string {
	out := make(map[string]string)
	var series []string
	grid := 0
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			series = nil
		case f[0] == "workload":
			series = f[1:]
			grid++
		case series == nil || f[0] == "Mean" || len(f) <= len(series):
		default:
			name := strings.Join(f[:len(f)-len(series)], " ")
			for i, v := range f[len(f)-len(series):] {
				out[fmt.Sprintf("%d#%s/%s", grid, name, series[i])] = v
			}
		}
	}
	return out
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
