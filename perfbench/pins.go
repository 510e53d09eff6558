package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// pin is one reference result recorded from the simulator: the rendered
// output, its SHA-256, exact cell values (sweeps) and the exact headline
// figure.
type pin struct {
	Text   string             `json:"text"`
	Digest string             `json:"digest"`
	Cells  map[string]float64 `json:"cells,omitempty"`
	Model  float64            `json:"model"`
}

// pinFile holds fig14's pin and, per seed, the trace-fig11 and serve pins.
type pinFile struct {
	Fig14      pin            `json:"fig14"`
	TraceFig11 map[string]pin `json:"trace-fig11"`
	Serve      map[string]pin `json:"serve"`
}

// Seeds recorded in pins.json: devSeed is the one used while building the
// benchmark, heldOutSeed was not looked at until the pins were written.
const (
	devSeed     = 1
	heldOutSeed = 2
)

//go:embed pins.json
var pinsJSON []byte

var pins = mustPins(pinsJSON)

func mustPins(b []byte) pinFile {
	var p pinFile
	if err := json.Unmarshal(b, &p); err != nil {
		panic(fmt.Sprintf("pins.json: %v", err))
	}
	return p
}

// writePins recomputes every pin from the simulator and writes pins.json's
// content to w.
func writePins(w io.Writer) error {
	dir, err := os.MkdirTemp(".", "pins-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out := pinFile{TraceFig11: map[string]pin{}, Serve: map[string]pin{}}
	f := newFig14()
	if err := f.setup(0, dir); err != nil {
		return err
	}
	f.round()
	out.Fig14 = sweepPin(f.rounds[0])
	for _, seed := range []int64{devSeed, heldOutSeed} {
		t := newTraceFig11()
		if err := t.setup(seed, dir); err != nil {
			return err
		}
		t.round()
		out.TraceFig11[fmt.Sprint(seed)] = sweepPin(t.rounds[0])
		var all totals
		for _, st := range serveStreams(seed) {
			all.add(sessionReference(st))
		}
		out.Serve[fmt.Sprint(seed)] = pin{Text: all.String(), Digest: digest(all.String()), Model: all.hitRate()}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func sweepPin(r sweepRound) pin {
	return pin{Text: r.text, Digest: digest(r.text), Cells: r.cells, Model: r.model}
}
