// Command perfbench is the repository's benchmark: it runs one workload of
// the Domino simulator for a fixed time, checks every result against a
// reference, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as one JSON line. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig14 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Set-up runs at least minSetups times and until setupBudget has been
// spent (at most maxSetups times); setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = time.Second
)

// minRounds is the fewest timed rounds a run makes, whatever -seconds says,
// so that every round metric is a median of at least three.
const minRounds = 3

// bench is one workload.
type bench interface {
	// setup builds the run's inputs from the seed; dir is scratch space
	// inside the checkout. It is timed as setup_s.
	setup(seed int64, dir string) error
	// warm runs untimed work before the first timed round.
	warm() error
	// round runs the workload's fixed unit of work once.
	round() roundOut
	// verify checks every round (and a reference computed outside the
	// timed phase) and returns operations attempted and failed.
	verify() (attempted, failed int)
	// modelResult is the round's exact simulated headline figure.
	modelResult() float64
}

// roundOut is one timed round.
type roundOut struct {
	accesses  int64     // accesses replayed
	ops       int       // operations attempted
	latencies []float64 // per-operation latencies, ms
	maxTail   bool      // report the slowest operation per round as the tail, not p99
	err       error     // the round failed as a whole
}

func newBench(name string) (bench, error) {
	switch name {
	case "fig14":
		return newFig14(), nil
	case "trace-fig11":
		return newTraceFig11(), nil
	case "serve":
		return &serveBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have fig14, trace-fig11, serve)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// rounds and samples are the timed rounds and latency samples behind
	// the metrics; printed, not part of the JSON line.
	rounds, samples int
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: fig14, trace-fig11 or serve")
		seed    = fs.Int64("seed", 1, "input seed (fig14 ignores it: its inputs are the calibrated Table II generators)")
		seconds = fs.Int("seconds", 15, "how long the timed phase runs")
		traced  = fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed rounds")
		out     = fs.String("out", ".bench_build", "directory for scratch files and span dumps")
		pinMode = fs.Bool("pin", false, "print the reference pins for pins.json instead of benchmarking")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pinMode {
		return writePins(stdout)
	}
	b, err := newBench(*name)
	if err != nil {
		return err
	}
	dir := filepath.Join(*out, fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var res result
	if *traced == 1 {
		res, err = tracedRun(b, *name, *seed, dir, filepath.Join(*out, "spans"))
	} else {
		res, err = timedRun(b, *seed, time.Duration(*seconds)*time.Second, dir)
	}
	if err != nil {
		return err
	}
	return printResult(stdout, res)
}

// timedRun sets up repeatedly, then runs rounds for the given time
// (at least minRounds), then verifies. Every round metric is the median
// over rounds, so accesses_per_s is accesses over that same wall_s.
func timedRun(b bench, seed int64, budget time.Duration, dir string) (result, error) {
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupBudget); {
		t0 := time.Now()
		if err := b.setup(seed, dir); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Collect the previous set-up's inputs before the next one, so
		// that neither later set-ups nor peak_rss_mb depend on when the
		// collector happened to run.
		runtime.GC()
	}
	if err := b.warm(); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	var (
		walls, cpus, lat  []float64
		slowest           []float64 // each round's slowest operation
		accesses          int64
		attempted, failed int
		maxTail           bool
	)
	start := time.Now()
	for len(walls) < minRounds || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= budget {
		c0, t0 := cpuTime(), time.Now()
		r := b.round()
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		accesses, maxTail = r.accesses, r.maxTail
		if r.err != nil {
			attempted += r.ops
			failed += r.ops
			continue
		}
		lat = append(lat, r.latencies...)
		if len(r.latencies) > 0 {
			slowest = append(slowest, sortedCopy(r.latencies)[len(r.latencies)-1])
		}
	}
	// Read before the check, whose reference runs are not the workload.
	peak := peakRSSMB()
	a, f := b.verify()
	attempted += a
	failed += f

	wall := median(walls)
	sorted := sortedCopy(lat)
	p99, err := batchTail(sorted, slowest, maxTail)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{
		"wall_s":         {wall, "s"},
		"accesses_per_s": {float64(accesses) / wall, "1/s"},
		"cpu_s":          {median(cpus), "s"},
		"setup_s":        {median(setups), "s"},
		"peak_rss_mb":    {peak, "MB"},
		"batch_p50_ms":   {nearestRank(sorted, 50), "ms"},
		"batch_p99_ms":   {p99, "ms"},
		"model_result":   {b.modelResult(), "ratio"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds (wall_s %.3f), %d latency samples\n", len(walls), walls, len(lat))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m, rounds: len(walls), samples: len(lat)}, nil
}

// batchTail is the latency tail: p99 with at least minBeyondTail samples
// beyond it for serve batches, or, for a sweep's few cells per round, the
// median over rounds of the round's slowest cell, which sets the makespan.
func batchTail(sorted, slowest []float64, maxTail bool) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("no latency samples")
	}
	if maxTail {
		return median(slowest), nil
	}
	return tailPercentile(sorted, 99)
}

// printResult prints each metric by name with its unit, then the result as
// the last line.
func printResult(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.rounds > 0 {
		fmt.Fprintf(w, "rounds=%d latency_samples=%d\n", r.rounds, r.samples)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
