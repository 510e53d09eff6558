package domino

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// traceGoldenPath is the checked-in external ChampSim trace (5000 memory
// accesses over ~275k instructions of the OLTP generator, gzip-compressed)
// that pins the external-trace ingestion path end to end.
const traceGoldenPath = "testdata/oltp_5k.champsim.gz"

// traceConformanceOptions sizes the sweep to the small golden trace: the
// warmup must leave a measurement window within its 5000 accesses.
func traceConformanceOptions() Options {
	o := QuickOptions()
	o.Accesses = 5000
	o.Warmup = 1000
	o.TracePath = traceGoldenPath
	return o
}

// TestTraceConformance drives a full grid figure (Fig. 11, degree-1
// comparison) from the checked-in ChampSim trace and requires the
// rendered output to be byte-identical to the golden AND byte-identical
// across worker counts — the determinism contract of the experiment
// engine, now holding on the external-trace path. Refresh with:
//
//	go test -run TestTraceConformance -update-goldens .
func TestTraceConformance(t *testing.T) {
	goldenPath := filepath.Join("testdata", "trace_conformance_golden.txt")
	run := func(parallelism int) string {
		o := traceConformanceOptions()
		o.Parallelism = parallelism
		out, err := RunExperiment(ExpFig11Degree1, o)
		if err != nil {
			t.Fatalf("RunExperiment(fig11, -j %d): %v", parallelism, err)
		}
		return out
	}
	j1, j8 := run(1), run(8)
	if j1 != j8 {
		t.Fatalf("trace-driven output differs across worker counts:\n-j 1:\n%s\n-j 8:\n%s", j1, j8)
	}

	if *updateGoldens {
		if err := os.WriteFile(goldenPath, []byte(j1), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update-goldens to capture): %v", err)
	}
	if j1 != string(want) {
		t.Fatalf("trace-driven figure diverged from golden:\n got:\n%s\nwant:\n%s", j1, want)
	}
}

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/conformance_goldens.json from the current implementation")

// conformanceGoldens pins the full trace-based evaluation of every
// prefetcher on one canonical workload. The file was captured from the
// pre-flathash map implementations of the metadata indexes (digram, stms,
// isb, ghb), so this test is the cross-prefetcher conformance check for
// the internal/flathash migration: the kernels may change the index
// representation, never the reported statistics.
type conformanceGoldens struct {
	Workload string          `json:"workload"`
	Options  Options         `json:"options"`
	Reports  map[Kind]Report `json:"reports"`
}

func goldensPath(t testing.TB) string {
	t.Helper()
	return filepath.Join("testdata", "conformance_goldens.json")
}

func conformanceOptions() (string, Options) {
	return "OLTP", QuickOptions()
}

// TestPrefetcherConformance replays the canonical workload through each
// prefetcher and requires bit-identical miss, coverage, accuracy,
// overprediction, stream-length and traffic statistics against the
// checked-in goldens. Refresh with:
//
//	go test -run TestPrefetcherConformance -update-goldens .
func TestPrefetcherConformance(t *testing.T) {
	workloadName, o := conformanceOptions()
	got := conformanceGoldens{
		Workload: workloadName,
		Options:  o,
		Reports:  make(map[Kind]Report, len(Kinds())),
	}
	for _, k := range Kinds() {
		rep, err := Evaluate(workloadName, k, o)
		if err != nil {
			t.Fatalf("Evaluate(%s, %s): %v", workloadName, k, err)
		}
		got.Reports[k] = rep
	}

	if *updateGoldens {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.MkdirAll(filepath.Dir(goldensPath(t)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldensPath(t), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldensPath(t))
		return
	}

	raw, err := os.ReadFile(goldensPath(t))
	if err != nil {
		t.Fatalf("reading goldens (rerun with -update-goldens to capture): %v", err)
	}
	var want conformanceGoldens
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing goldens: %v", err)
	}
	if want.Workload != got.Workload {
		t.Fatalf("golden workload %q, test evaluates %q", want.Workload, got.Workload)
	}
	if want.Options != got.Options {
		t.Fatalf("golden options %+v, test evaluates %+v (refresh with -update-goldens)",
			want.Options, got.Options)
	}
	for _, k := range Kinds() {
		w, ok := want.Reports[k]
		if !ok {
			t.Errorf("%s: no golden report (refresh with -update-goldens)", k)
			continue
		}
		if g := got.Reports[k]; g != w {
			t.Errorf("%s: report diverged from map-implementation golden:\n got %+v\nwant %+v", k, g, w)
		}
	}
	for k := range want.Reports {
		if _, ok := got.Reports[k]; !ok {
			t.Errorf("golden has report for unknown prefetcher %q", k)
		}
	}
}

// figureGoldensPath holds the rendered output of the figures no other
// golden covers, keyed by experiment id.
const figureGoldensPath = "testdata/figure_goldens.json"

// figureGoldenOptions sizes the figure goldens for tier-1: two workloads
// at 60k accesses, with tables scaled down far enough (scale 256) that the
// EIT and HT are contested — row collisions, super-entry and entry
// evictions, and stale HT pointers all occur within the window.
func figureGoldenOptions() (Options, []string) {
	o := QuickOptions()
	o.Accesses = 60_000
	o.Warmup = 30_000
	o.Scale = 256
	return o, []string{"OLTP", "MapReduce-W"}
}

// figureGoldenExperiments are the paths the Domino kernels feed that the
// prefetcher conformance goldens do not: the timing model (Fig. 14), the
// EIT-rows sweep (Fig. 10), the VLDP+Domino Stack (Fig. 16), and the
// ablations, which run EIT geometries with 1 and 8 entries per
// super-entry.
var figureGoldenExperiments = []Experiment{
	ExpFig14Speedup, ExpFig10EITSweep, ExpFig16SpatioTempo, ExpAblations,
}

// TestFigureGoldens renders each figure in figureGoldenExperiments as CSV
// (six decimals, so a one-miss change shows) at -j 1 and -j 8 and requires
// both to be byte-identical to the checked-in golden. Refresh with:
//
//	go test -run TestFigureGoldens -update-goldens .
func TestFigureGoldens(t *testing.T) {
	o, workloads := figureGoldenOptions()
	got := make(map[Experiment]string, len(figureGoldenExperiments))
	for _, exp := range figureGoldenExperiments {
		run := func(parallelism int) string {
			o := o
			o.Parallelism = parallelism
			out, err := RunExperimentFormat(exp, o, FormatCSV, workloads...)
			if err != nil {
				t.Fatalf("RunExperiment(%s, -j %d): %v", exp, parallelism, err)
			}
			return out
		}
		j1, j8 := run(1), run(8)
		if j1 != j8 {
			t.Fatalf("%s: output differs across worker counts:\n-j 1:\n%s\n-j 8:\n%s", exp, j1, j8)
		}
		got[exp] = j1
	}

	if *updateGoldens {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldensPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", figureGoldensPath)
		return
	}
	raw, err := os.ReadFile(figureGoldensPath)
	if err != nil {
		t.Fatalf("reading figure goldens (rerun with -update-goldens to capture): %v", err)
	}
	var want map[Experiment]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing figure goldens: %v", err)
	}
	for _, exp := range figureGoldenExperiments {
		w, ok := want[exp]
		if !ok {
			t.Errorf("%s: no golden (refresh with -update-goldens)", exp)
			continue
		}
		if got[exp] != w {
			t.Errorf("%s diverged from golden:\n got:\n%s\nwant:\n%s", exp, got[exp], w)
		}
	}
}
