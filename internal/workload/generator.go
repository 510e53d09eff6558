package workload

import (
	"math/rand"

	"domino/internal/mem"
	"domino/internal/trace"
)

// Address-space layout of generated traces. Regions are disjoint so that
// document, hot, noise and spatial accesses never collide.
const (
	docRegion     mem.Line = 0
	hotRegion     mem.Line = 1 << 30
	noiseRegion   mem.Line = 1 << 32
	spatialRegion mem.Line = 1 << 40
	pcBase        mem.Addr = 0x400000 // instruction addresses
)

// document is one recorded miss sequence: the lines touched by a recurring
// traversal, the PC pool its accesses draw from, and whether the traversal
// is a dependent pointer chase.
type document struct {
	lines []mem.Line
	pcs   []mem.Addr
	chain bool
}

// Generator emits an endless synthetic access stream for one workload. It
// implements trace.Reader. Construct with New; use trace.Limit/Collect to
// take a finite trace.
type Generator struct {
	p   Params
	rng *rand.Rand

	docs []document
	hot  []mem.Line

	// queue holds the current episode's accesses; Next serves them from
	// head and refills the same backing array once they are all taken.
	queue   []mem.Access
	head    int
	active  []activeSlot
	lastDoc int

	noiseN   uint64
	spatialN uint64
}

// activeSlot is one in-flight request handler: the document it is
// traversing and its position. The core's miss stream interleaves the
// active slots burst-wise.
type activeSlot struct {
	doc *document
	pos int
}

var _ trace.Reader = (*Generator)(nil)

// New builds a generator for p. Equal Params produce identical streams.
func New(p Params) *Generator {
	g := &Generator{
		p:       p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		lastDoc: -1,
	}
	g.buildDocuments()
	g.active = make([]activeSlot, maxInt(p.Concurrency, 1))
	g.hot = make([]mem.Line, maxInt(p.HotLines, 1))
	for i := range g.hot {
		g.hot[i] = hotRegion + mem.Line(i)
	}
	return g
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

func (g *Generator) buildDocuments() {
	p := &g.p
	g.docs = make([]document, p.Documents)
	for i := range g.docs {
		n := g.docLen()
		lines := make([]mem.Line, n)
		for j := range lines {
			lines[j] = docRegion + mem.Line(g.rng.Intn(p.WorkingSetLines))
		}
		pcs := make([]mem.Addr, maxInt(p.PCsPerDoc, 1))
		for j := range pcs {
			pcs[j] = pcBase + mem.Addr(g.rng.Intn(maxInt(p.PCPool, 1)))*4
		}
		g.docs[i] = document{
			lines: lines,
			pcs:   pcs,
			chain: g.rng.Float64() < p.ChainFrac,
		}
	}
	// Alias groups: the first AliasFrac of the documents share their
	// first line within groups of AliasGroupSize; a subset of groups
	// also shares the second line.
	aliased := int(p.AliasFrac * float64(p.Documents))
	size := maxInt(p.AliasGroupSize, 2)
	for start := 0; start+size <= aliased; start += size {
		leaderLines := g.docs[start].lines
		deep := g.rng.Float64() < p.Alias2Frac
		for j := start + 1; j < start+size; j++ {
			g.docs[j].lines[0] = leaderLines[0]
			if deep && len(g.docs[j].lines) > 1 && len(leaderLines) > 1 {
				g.docs[j].lines[1] = leaderLines[1]
			}
		}
	}
}

// docLen samples a document length: with probability ShortDocFrac a short
// document of 2-3 lines, otherwise geometric with the configured mean,
// truncated to [2, DocLenMax].
func (g *Generator) docLen() int {
	if g.rng.Float64() < g.p.ShortDocFrac {
		return 2 + g.rng.Intn(2)
	}
	mean := maxInt(g.p.DocLenMean, 2)
	n := 2
	// Geometric with success probability 1/(mean-1) shifted by 2.
	for n < g.p.DocLenMax && g.rng.Float64() >= 1.0/float64(mean-1) {
		n++
	}
	return n
}

// Next implements trace.Reader; the stream never ends.
func (g *Generator) Next() (mem.Access, bool) {
	for g.head == len(g.queue) {
		g.queue, g.head = g.queue[:0], 0
		g.refill()
	}
	a := g.queue[g.head]
	g.head++
	return a, true
}

// refill enqueues the next episode: usually a burst from one of the
// concurrently active document traversals, sometimes a spatial run.
func (g *Generator) refill() {
	if g.rng.Float64() < g.p.SpatialProb {
		g.spatialRun()
		return
	}
	g.replayBurst()
}

// burstLen samples a geometric burst length with mean BurstMean, >= 1.
func (g *Generator) burstLen() int {
	mean := maxInt(g.p.BurstMean, 1)
	n := 1
	for g.rng.Float64() >= 1.0/float64(mean) {
		n++
	}
	return n
}

// startDoc installs a fresh document in the slot, avoiding the most
// recently finished one (an immediate repeat would sit in the L1 and
// produce no triggering events).
func (g *Generator) startDoc(s *activeSlot) {
	i := g.rng.Intn(len(g.docs))
	if i == g.lastDoc {
		i = (i + 1) % len(g.docs)
	}
	g.lastDoc = i
	s.doc = &g.docs[i]
	s.pos = 0
}

// replayBurst emits the next burst: one handler contributes a geometric
// number of consecutive document elements, then the core switches to
// another handler. Noise and hot accesses are emitted between bursts —
// noise lines are unique, so spraying them inside a burst would cut every
// temporal stream below what the paper measures.
func (g *Generator) replayBurst() {
	p := &g.p
	slot := &g.active[g.rng.Intn(len(g.active))]
	if slot.doc == nil {
		g.startDoc(slot)
	}
	doc := slot.doc
	k := g.burstLen()

	// Noise/hot traffic proportional to the burst size, up front.
	for i := 0; i < k; i++ {
		g.interleave()
	}

	mlp := 0
	for i := 0; i < k; i++ {
		pos := slot.pos
		if pos >= len(doc.lines) {
			slot.doc = nil // traversal finished; a new request arrives later
			return
		}
		slot.pos++
		if i > 0 && g.rng.Float64() < p.InDocNoiseProb {
			g.emitNoise()
		}
		if g.rng.Float64() < p.SkipProb {
			continue
		}
		line := doc.lines[pos]
		if g.rng.Float64() < p.MutateProb {
			line = docRegion + mem.Line(g.rng.Intn(p.WorkingSetLines))
		}
		// Loop-style PCs: a traversal is executed by one or two load
		// instructions, so contiguous segments of the document share a
		// PC (and, because handlers share code, the same PC serves many
		// documents). Jitter models thread interleaving.
		seg := pos * len(doc.pcs) / len(doc.lines)
		pc := doc.pcs[seg]
		if g.rng.Float64() < p.PCJitterProb {
			pc = pcBase + mem.Addr(g.rng.Intn(maxInt(p.PCPool, 1)))*4
		}
		a := mem.Access{
			PC:        pc,
			Addr:      line.Addr(),
			Write:     g.rng.Float64() < p.WriteFrac,
			Dependent: doc.chain && pos > 0,
			Gap:       g.gap(),
		}
		if !doc.chain && p.IndepBurst > 1 {
			if mlp > 0 {
				a.Gap = 0 // back-to-back independent misses: high MLP
			}
			mlp++
			if mlp >= p.IndepBurst {
				mlp = 0
			}
		}
		g.queue = append(g.queue, a)
	}
}

// emitNoise enqueues one access to a fresh, never-reused line.
func (g *Generator) emitNoise() {
	line := noiseRegion + mem.Line(g.noiseN)
	g.noiseN++
	g.queue = append(g.queue, mem.Access{
		PC:   pcBase + mem.Addr(g.rng.Intn(maxInt(g.p.PCPool, 1)))*4,
		Addr: line.Addr(),
		Gap:  g.gap(),
	})
}

// interleave emits, with the configured probabilities, a one-off noise
// access and/or a hot (cache-resident) access before the next document
// element.
func (g *Generator) interleave() {
	p := &g.p
	if g.rng.Float64() < p.NoiseProb {
		g.emitNoise()
	}
	for g.rng.Float64() < p.HotProb {
		line := g.hot[g.rng.Intn(len(g.hot))]
		g.queue = append(g.queue, mem.Access{
			PC:   pcBase + mem.Addr(g.rng.Intn(maxInt(p.PCPool, 1)))*4,
			Addr: line.Addr(),
			Gap:  g.gap(),
		})
		break // at most one hot access per element keeps miss rate stable
	}
}

// spatialRun emits a strided run in a fresh page: a pattern VLDP learns
// from the delta sequence but that no temporal prefetcher can replay,
// because the addresses have never been seen.
func (g *Generator) spatialRun() {
	p := &g.p
	stride := maxInt(p.SpatialStride, 1)
	runLen := maxInt(p.SpatialRunLen, 2)
	if runLen*stride > mem.LinesPerPage {
		runLen = mem.LinesPerPage / stride
	}
	page := (spatialRegion + mem.Line(g.spatialN*mem.LinesPerPage)).Page()
	g.spatialN++
	maxStart := mem.LinesPerPage - (runLen-1)*stride - 1
	start := 0
	if maxStart > 0 {
		start = g.rng.Intn(maxStart + 1)
	}
	pc := pcBase + mem.Addr(g.rng.Intn(maxInt(p.PCPool, 1)))*4
	for i := 0; i < runLen; i++ {
		g.queue = append(g.queue, mem.Access{
			PC:   pc,
			Addr: page.LineAt(start + i*stride).Addr(),
			Gap:  g.gap(),
		})
	}
}

func (g *Generator) gap() uint16 {
	p := &g.p
	gap := p.GapMean
	if p.GapJitter > 0 {
		gap += g.rng.Intn(2*p.GapJitter+1) - p.GapJitter
	}
	if gap < 0 {
		gap = 0
	}
	return uint16(gap)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
