package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/bingo-rw/bingo"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
)

// sizing fixes how much work a run does. The full sizing is what
// BENCHMARK.json's command runs; the smoke sizing is the same program on a
// graph small enough for a unit test.
type sizing struct {
	scale float64 // of the paper's LiveJournal graph (4.8 M vertices, 68.5 M edges)

	// batch-rounds: one round is ApplyBatch(batchEvents), then streamEvents
	// in ApplyStream calls of streamCall events, then DeepWalk from every
	// vertex, then spotWalks single-start walks.
	batchEvents, streamEvents, streamCall, spotWalks int

	// Serving workloads: drainChunks times, drainEvents go in flat out in
	// drainBatch-event batches and a Sync ends the chunk; the open-loop
	// feeder then offers feedRate updates/s in feedBatch-event batches.
	// probeBatches sizes live-read's closed-loop visibility probe.
	drainChunks, drainEvents, drainBatch, feedRate, feedBatch, probeBatches int
	timedParts                                                              int // the timed part is cut into this many; figures are medians over them

	longWalk, hubWalk int     // Query lengths: whole-graph walks, hub-started walks
	hubShare          float64 // top share of vertices by degree that count as hubs
	warmQueries       int     // fixed-work warm-up, inside every timed set-up
	setupReps         int     // set-ups per run; setup_s is their median

	// tailBeyond is how many timed queries must lie beyond p99 for the run
	// to count. The smoke sizing waives it: its one second, under the race
	// detector, is too short to say anything about a tail.
	tailBeyond int

	ladderQueries int           // the fixed query set every rung replays
	ladderBox     time.Duration // a rung stops early after this long
	chiDraws      int           // batch-rounds' chi-square sample at the top hub
	checkWalks    int           // quiesced walks checked hop by hop
}

// The full sizing is the issue's LJ×0.1 plan scaled by 0.3 in every
// dimension that costs time, so that a run with three set-ups, ten measured
// seconds and the output checks ends in about 25 s (see README.md, "Sizing").
// At 144 000 vertices and 2.05 M edges the engine holds ~270 MB, far outside
// the caches of the 2-vCPU reference box.
var fullSizing = sizing{
	scale:       0.03,
	batchEvents: 27000, streamEvents: 3000, streamCall: 250, spotWalks: 1000,
	drainChunks: 10, drainEvents: 30000, drainBatch: 1024, feedRate: 20000, feedBatch: 256, probeBatches: 400, timedParts: 5,
	longWalk: 80, hubWalk: 16, hubShare: 0.01,
	warmQueries: 2000, setupReps: 3, tailBeyond: tailSupport,
	ladderQueries: 20000, ladderBox: time.Second,
	chiDraws: 120000, checkWalks: 2000,
}

var smokeSizing = sizing{
	scale:       0.002,
	batchEvents: 1800, streamEvents: 200, streamCall: 50, spotWalks: 300,
	drainChunks: 2, drainEvents: 3000, drainBatch: 256, feedRate: 5000, feedBatch: 64, probeBatches: 40, timedParts: 1,
	longWalk: 80, hubWalk: 16, hubShare: 0.05,
	warmQueries: 200, setupReps: 1, tailBeyond: 0,
	ladderQueries: 500, ladderBox: 100 * time.Millisecond,
	chiDraws: 120000, checkWalks: 300,
}

// roundEvents is the tape consumed by one batch-rounds round.
func (z sizing) roundEvents() int { return z.batchEvents + z.streamEvents }

// inputs is everything a workload receives: a graph and an update tape made
// from the seed, and start vertices drawn from them. The system under test
// sees nothing else.
type inputs struct {
	seed     uint64
	sz       sizing
	vertices int
	edges    int64 // of the generated graph, before set B is held back

	initial    *graph.CSR     // the tape's set A: what every engine is built from
	edgeList   []bingo.Edge   // initial, as the public API takes it
	tape       []bingo.Update // the update stream, in order
	tapeRaw    []graph.Update // the same events for the internal rungs
	allStarts  []bingo.VertexID
	liveStarts []bingo.VertexID // out-degree > 0 in the initial snapshot
	hubStarts  []bingo.VertexID // top hubShare of vertices by out-degree
	topHub     bingo.VertexID

	genS, tapeS float64
}

// makeInputs generates LJ×scale from seed and a mixed insert/delete tape of
// tapeEvents events from seed+1 (the paper's §6.1 protocol: the initial
// snapshot is what remains after the to-be-inserted edges are held back).
func makeInputs(seed uint64, sz sizing, tapeEvents int) (*inputs, error) {
	ds, err := gen.DatasetByAbbr("LJ")
	if err != nil {
		return nil, err
	}
	t := time.Now()
	g, err := ds.Generate(sz.scale, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, sz: sz, vertices: g.NumVertices(), edges: g.NumEdges()}
	in.genS = time.Since(t).Seconds()

	t = time.Now()
	rounds := (tapeEvents + sz.roundEvents() - 1) / sz.roundEvents()
	w, err := gen.BuildWorkload(g, gen.UpdMixed, sz.roundEvents(), rounds, seed+1)
	if err != nil {
		return nil, err
	}
	in.tapeS = time.Since(t).Seconds()
	if len(w.Updates) < tapeEvents {
		return nil, fmt.Errorf("%w: graph of %d edges yields %d events, run needs %d",
			errTapeExhausted, g.NumEdges(), len(w.Updates), tapeEvents)
	}
	in.initial, in.tapeRaw = w.Initial, w.Updates

	in.edgeList = make([]bingo.Edge, 0, in.initial.NumEdges())
	for _, e := range in.initial.Edges() {
		in.edgeList = append(in.edgeList, bingo.Edge{Src: e.Src, Dst: e.Dst, Weight: float64(e.Bias)})
	}
	in.tape = make([]bingo.Update, len(w.Updates))
	for i, u := range w.Updates {
		if u.Op == graph.OpInsert {
			in.tape[i] = bingo.Insert(u.Src, u.Dst, float64(u.Bias))
		} else {
			in.tape[i] = bingo.Delete(u.Src, u.Dst)
		}
	}

	n := in.initial.NumVertices()
	byDegree := make([]bingo.VertexID, n)
	for v := range byDegree {
		byDegree[v] = bingo.VertexID(v)
		if in.initial.Degree(bingo.VertexID(v)) > 0 {
			in.liveStarts = append(in.liveStarts, bingo.VertexID(v))
		}
	}
	in.allStarts = append([]bingo.VertexID(nil), byDegree...)
	sort.SliceStable(byDegree, func(i, j int) bool {
		return in.initial.Degree(byDegree[i]) > in.initial.Degree(byDegree[j])
	})
	hubs := int(float64(n) * sz.hubShare)
	if hubs < 1 {
		hubs = 1
	}
	in.hubStarts, in.topHub = byDegree[:hubs], byDegree[0]
	return in, nil
}

// startStream draws starts from pool, reproducibly from the run's seed and
// a salt that separates one client's stream from another's.
func (in *inputs) startStream(pool []bingo.VertexID, salt uint64) func() bingo.VertexID {
	r := bingo.NewRand(in.seed*0x9e3779b97f4a7c15 + salt)
	return func() bingo.VertexID { return pool[r.Intn(len(pool))] }
}

func (in *inputs) newTape() *tape[bingo.Update] { return &tape[bingo.Update]{ups: in.tape} }

func (in *inputs) newEngine() (*bingo.Engine, error) { return bingo.FromEdges(in.edgeList) }
