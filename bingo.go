// Package bingo is a random-walk engine for dynamically changing graphs,
// reproducing "Bingo: Radix-based Bias Factorization for Random Walk on
// Dynamic Graphs" (EuroSys 2025).
//
// Bingo samples a biased neighbor in O(1) and ingests edge insertions and
// deletions in O(K) — K being the bit width of the largest bias — by
// decomposing each edge bias into power-of-two sub-biases, grouping them by
// bit position, and sampling hierarchically: an alias table across groups,
// then uniform sampling within the chosen group. An adaptive group
// representation (dense / one-element / sparse / regular) keeps the memory
// overhead practical, and a batched-update path ingests large update
// batches with vertex-level parallelism and a single rebuild per vertex.
//
// # Quick start
//
//	eng, err := bingo.FromEdges([]bingo.Edge{
//		{Src: 0, Dst: 1, Weight: 5},
//		{Src: 0, Dst: 2, Weight: 3},
//	})
//	if err != nil { ... }
//	r := bingo.NewRand(42)
//	next, ok := eng.Sample(0, r)         // biased O(1) sample
//	err = eng.Insert(1, 2, 7)            // O(K) streaming update
//	res := eng.DeepWalk(bingo.WalkOptions{Length: 80})
//
// See the examples directory for runnable scenarios and DESIGN.md for the
// system inventory and the paper-experiment index.
package bingo

import (
	"bufio"
	"fmt"
	"io"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// VertexID identifies a vertex (up to 2^32-1 vertices).
type VertexID = uint32

// Rand is the deterministic random number generator used by sampling and
// walks. Create one per goroutine with NewRand; generators are not safe for
// concurrent use, but any number may be used concurrently with each other
// and with Sample.
type Rand = xrand.RNG

// NewRand returns a deterministic generator seeded with seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// Edge is a weighted directed edge. Weight must be positive; in the default
// integer-bias mode it is truncated to an integer (and must be >= 1), while
// in float mode (WithFloatWeights) the fractional part participates via the
// paper's λ-scaled decimal group.
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// Op enumerates update kinds.
type Op uint8

const (
	// OpInsert adds an edge.
	OpInsert Op = iota
	// OpDelete removes one live instance of an edge.
	OpDelete
)

// Update is one dynamic-graph event for ApplyBatch / ApplyStream.
type Update struct {
	Op       Op
	Src, Dst VertexID
	// Weight is the inserted edge's weight (ignored for OpDelete).
	Weight float64
}

// Insert returns an insertion event.
func Insert(src, dst VertexID, weight float64) Update {
	return Update{Op: OpInsert, Src: src, Dst: dst, Weight: weight}
}

// Delete returns a deletion event.
func Delete(src, dst VertexID) Update {
	return Update{Op: OpDelete, Src: src, Dst: dst}
}

// BatchResult reports what a batch application did.
type BatchResult struct {
	Inserted, Deleted, NotFound int
}

// Options configure an Engine.
type options struct {
	cfg core.Config
}

// Option customizes engine construction.
type Option func(*options) error

// WithFloatWeights enables floating-point edge weights (paper §4.3).
// lambda is the amortization factor; 0 selects automatic calibration.
func WithFloatWeights(lambda float64) Option {
	return func(o *options) error {
		if lambda < 0 {
			return fmt.Errorf("bingo: negative lambda %v", lambda)
		}
		o.cfg.FloatBias = true
		o.cfg.Lambda = lambda
		return nil
	}
}

// WithRadixBits sets the radix base to 2^bits (supplement §9.2). The
// default is 1 (binary factorization).
func WithRadixBits(bits int) Option {
	return func(o *options) error {
		o.cfg.RadixBits = bits
		return nil
	}
}

// WithAdaptiveGroups toggles the §5.1 adaptive group representation
// (enabled by default; disabling reproduces the paper's "BS" baseline).
func WithAdaptiveGroups(enabled bool) Option {
	return func(o *options) error {
		o.cfg.Adaptive = enabled
		return nil
	}
}

// WithThresholds overrides the Equation 9 dense/sparse thresholds
// (percentages; paper defaults 40 and 10).
func WithThresholds(alphaPct, betaPct float64) Option {
	return func(o *options) error {
		o.cfg.AlphaPct = alphaPct
		o.cfg.BetaPct = betaPct
		return nil
	}
}

// WithWorkers bounds batched-update parallelism (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(o *options) error {
		o.cfg.Workers = n
		return nil
	}
}

// Engine is a Bingo sampler over a dynamic graph. Concurrent Sample calls
// are safe; updates must not run concurrently with sampling or each other.
type Engine struct {
	s *core.Sampler
}

func buildOptions(opts []Option) (core.Config, error) {
	o := options{cfg: core.DefaultConfig()}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return core.Config{}, err
		}
	}
	return o.cfg, nil
}

// New creates an empty engine with the given vertex-ID space. The space
// grows automatically when updates reference larger IDs.
func New(numVertices int, opts ...Option) (*Engine, error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	s, err := core.New(numVertices, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{s: s}, nil
}

// FromEdges creates an engine initialized with the given edges. The vertex
// space is sized to the largest referenced ID.
func FromEdges(edges []Edge, opts ...Option) (*Engine, error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	maxID := VertexID(0)
	for _, e := range edges {
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	ge := make([]graph.Edge, len(edges))
	for i, e := range edges {
		if e.Weight <= 0 {
			return nil, fmt.Errorf("bingo: edge (%d,%d) weight %v must be positive", e.Src, e.Dst, e.Weight)
		}
		ib := uint64(e.Weight)
		ge[i] = graph.Edge{Src: e.Src, Dst: e.Dst, Bias: ib, FBias: e.Weight - float64(ib)}
		if !cfg.FloatBias {
			if ib == 0 {
				return nil, fmt.Errorf("bingo: edge (%d,%d) weight %v truncates to zero in integer mode (use WithFloatWeights)", e.Src, e.Dst, e.Weight)
			}
			ge[i].FBias = 0
		}
	}
	g, err := graph.FromEdges(int(maxID)+1, ge)
	if err != nil {
		return nil, err
	}
	s, err := core.NewFromCSR(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{s: s}, nil
}

// FromEdgeList creates an engine from "src dst [weight]" text (weights
// default to 1; '#'/'%' lines are comments).
func FromEdgeList(r io.Reader, opts ...Option) (*Engine, error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	s, err := core.NewFromCSR(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{s: s}, nil
}

// NumVertices returns the vertex-ID space size.
func (e *Engine) NumVertices() int { return e.s.NumVertices() }

// NumEdges returns the live edge count.
func (e *Engine) NumEdges() int64 { return e.s.NumEdges() }

// Degree returns u's out-degree.
func (e *Engine) Degree(u VertexID) int { return e.s.Degree(u) }

// HasEdge reports whether at least one edge u→dst is live.
func (e *Engine) HasEdge(u, dst VertexID) bool { return e.s.HasEdge(u, dst) }

// Memory returns the engine's total memory footprint in bytes (adjacency,
// group structures, inverted indices, alias tables).
func (e *Engine) Memory() int64 { return e.s.Footprint() }

// Stats is an observability snapshot of the engine's internal structures.
type Stats struct {
	Vertices int
	Edges    int64
	Memory   int64
	// Groups counts radix groups by representation: dense, one-element,
	// sparse, regular (paper §5.1's adaptive categories).
	DenseGroups, OneElementGroups, SparseGroups, RegularGroups int64
	// Lambda is the float-bias amortization factor (0 in integer mode).
	Lambda float64
}

// Stats collects the observability snapshot (O(V + groups)).
func (e *Engine) Stats() Stats {
	gs := e.s.CollectGroupStats()
	lambda := 0.0
	if e.s.Config().FloatBias {
		lambda = e.s.Lambda()
	}
	return Stats{
		Vertices:         e.NumVertices(),
		Edges:            e.NumEdges(),
		Memory:           e.Memory(),
		DenseGroups:      gs.Groups[core.KindDense],
		OneElementGroups: gs.Groups[core.KindOne],
		SparseGroups:     gs.Groups[core.KindSparse],
		RegularGroups:    gs.Groups[core.KindRegular],
		Lambda:           lambda,
	}
}

// Sample draws a neighbor of u with probability weight/Σweights in O(1).
// ok is false when u has no sampleable out-edge. Safe for concurrent use
// with other Sample calls (each goroutine needs its own Rand).
func (e *Engine) Sample(u VertexID, r *Rand) (v VertexID, ok bool) {
	return e.s.Sample(u, r)
}

// Insert adds edge u→dst with the given weight (streaming path, O(K)).
func (e *Engine) Insert(u, dst VertexID, weight float64) error {
	return e.insert(u, dst, weight)
}

func (e *Engine) insert(u, dst VertexID, weight float64) error {
	if e.s.Config().FloatBias {
		return e.s.InsertFloat(u, dst, weight)
	}
	ib, err := intWeight(weight)
	if err != nil {
		return err
	}
	return e.s.Insert(u, dst, ib)
}

// maxIntWeight bounds integer-mode weights: beyond 2^62 the float→uint64
// conversion result is implementation-specific per the Go spec, and two
// such biases could overflow a vertex's uint64 total mass.
const maxIntWeight = float64(1 << 62)

// intWeight validates and truncates an integer-mode weight; shared by the
// sequential and concurrent public entry points so their rules cannot
// diverge.
func intWeight(weight float64) (uint64, error) {
	// Rejects NaN (self-inequality), ≤0, Inf/out-of-range, and values that
	// truncate to zero.
	if weight != weight || weight <= 0 || weight >= maxIntWeight || uint64(weight) == 0 {
		return 0, fmt.Errorf("bingo: weight %v invalid in integer mode", weight)
	}
	return uint64(weight), nil
}

// Delete removes one live instance of edge u→dst (streaming path, O(K)).
func (e *Engine) Delete(u, dst VertexID) error { return e.s.Delete(u, dst) }

// UpdateWeight rewrites the weight of one live instance of edge u→dst in
// O(K), touching only the radix groups on which old and new weight differ
// (paper §4.2's bias-update operation).
func (e *Engine) UpdateWeight(u, dst VertexID, weight float64) error {
	if e.s.Config().FloatBias {
		return e.s.UpdateBiasFloat(u, dst, weight)
	}
	ib, err := intWeight(weight)
	if err != nil {
		return err
	}
	return e.s.UpdateBias(u, dst, ib)
}

// DeleteVertex removes every out-edge of u (O(degree)). In-edges pointing
// at u are not removed — the engine keeps no reverse adjacency; delete
// them explicitly or use DeleteVertexEverywhere for a full O(V+E) sweep.
func (e *Engine) DeleteVertex(u VertexID) error { return e.s.DeleteVertex(u) }

// DeleteVertexEverywhere removes u's out-edges and scans all vertices for
// in-edges to u, removing those too (O(V+E); administrative use).
func (e *Engine) DeleteVertexEverywhere(u VertexID) error {
	return e.s.DeleteVertexEverywhere(u)
}

// toInternal converts a public update to the internal representation.
func (e *Engine) toInternal(ups []Update) ([]graph.Update, error) {
	return toInternalUpdates(e.s.Config().FloatBias, ups)
}

func toInternalUpdates(floatMode bool, ups []Update) ([]graph.Update, error) {
	out := make([]graph.Update, len(ups))
	for i, up := range ups {
		g := graph.Update{Src: up.Src, Dst: up.Dst}
		switch up.Op {
		case OpInsert:
			g.Op = graph.OpInsert
			if up.Weight <= 0 {
				return nil, fmt.Errorf("bingo: update %d: weight %v must be positive", i, up.Weight)
			}
			g.Bias = uint64(up.Weight)
			if floatMode {
				g.FBias = up.Weight - float64(g.Bias)
			} else if g.Bias == 0 {
				return nil, fmt.Errorf("bingo: update %d: weight %v truncates to zero in integer mode", i, up.Weight)
			}
		case OpDelete:
			g.Op = graph.OpDelete
		default:
			return nil, fmt.Errorf("bingo: update %d: unknown op %d", i, up.Op)
		}
		out[i] = g
	}
	return out, nil
}

// ApplyBatch ingests updates through the high-throughput batched path
// (paper §5.2): an O(n) stable reorder by source vertex, parallel workers
// over the per-vertex runs, 2-phase delete-and-swap, one rebuild per
// touched vertex. Deletions of edges that are not live are counted in
// BatchResult.NotFound and skipped.
func (e *Engine) ApplyBatch(ups []Update) (BatchResult, error) {
	internal, err := e.toInternal(ups)
	if err != nil {
		return BatchResult{}, err
	}
	res, err := e.s.ApplyBatch(internal)
	return BatchResult{Inserted: res.Inserted, Deleted: res.Deleted, NotFound: res.NotFound}, err
}

// ApplyStream ingests updates one at a time through the low-latency
// streaming path. Deletions of missing edges are skipped.
func (e *Engine) ApplyStream(ups []Update) error {
	internal, err := e.toInternal(ups)
	if err != nil {
		return err
	}
	return e.s.ApplyUpdatesStreaming(internal)
}

// WalkOptions configure a random-walk run.
type WalkOptions struct {
	// Length is the walk length (default 80, the paper's setting).
	Length int
	// Starts are the start vertices; nil starts one walker per vertex.
	Starts []VertexID
	// Workers bounds walker parallelism (default 1).
	Workers int
	// Seed makes the run reproducible.
	Seed uint64
	// TermProb is PPR's per-step termination probability (default 1/80).
	TermProb float64
	// P, Q are node2vec's hyper-parameters (defaults 0.5 and 2, as in
	// the paper's evaluation).
	P, Q float64
	// CountVisits enables per-vertex visit counting.
	CountVisits bool
}

// WalkResult summarizes a walk run.
type WalkResult struct {
	// Walkers is the number of walks performed.
	Walkers int
	// Steps is the total number of sampling steps.
	Steps int64
	// Visits[v] counts arrivals at v (nil unless CountVisits).
	Visits []int64
}

func (o WalkOptions) internal() walk.Config {
	return walk.Config{
		Length: o.Length, Starts: o.Starts, Workers: o.Workers,
		Seed: o.Seed, TermProb: o.TermProb, P: o.P, Q: o.Q,
		CountVisits: o.CountVisits,
	}
}

func fromWalk(r walk.Result) WalkResult {
	return WalkResult{Walkers: r.Walkers, Steps: r.Steps, Visits: r.Visits}
}

// DeepWalk runs biased DeepWalk: fixed-length first-order walks.
func (e *Engine) DeepWalk(o WalkOptions) WalkResult {
	return fromWalk(walk.DeepWalk(e.s, o.internal()))
}

// Node2Vec runs second-order node2vec walks (Equation 1's p/q biases via
// KnightKing-style rejection).
func (e *Engine) Node2Vec(o WalkOptions) WalkResult {
	return fromWalk(walk.Node2Vec(e.s, o.internal()))
}

// PPR runs personalized-PageRank walks with geometric termination.
func (e *Engine) PPR(o WalkOptions) WalkResult {
	return fromWalk(walk.PPR(e.s, o.internal()))
}

// SimpleSampling runs the independent one-hop sampling kernel.
func (e *Engine) SimpleSampling(o WalkOptions) WalkResult {
	return fromWalk(walk.SimpleSampling(e.s, o.internal()))
}

// MetaPath runs metapath-guided second-order walks: labels assigns each
// vertex a type, and walkers follow the cyclic type pattern (e.g.
// author→paper→venue→paper), sampling each transition from the biased
// distribution restricted to the required type via rejection.
func (e *Engine) MetaPath(labels func(VertexID) uint8, pattern []uint8, o WalkOptions) WalkResult {
	return fromWalk(walk.MetaPath(e.s, labels, pattern, o.internal()))
}

// WriteDeepWalkCorpus runs DeepWalk and writes one walk per line (space
// separated vertex IDs) — the sentence corpus SkipGram-style embedding
// trainers consume.
func (e *Engine) WriteDeepWalkCorpus(o WalkOptions, w io.Writer) (WalkResult, error) {
	bw := bufio.NewWriter(w)
	var writeErr error
	res := walk.DeepWalkPaths(e.s, o.internal(), func(path []graph.VertexID) {
		if writeErr != nil {
			return
		}
		for i, v := range path {
			if i > 0 {
				if _, err := bw.WriteString(" "); err != nil {
					writeErr = err
					return
				}
			}
			if _, err := fmt.Fprintf(bw, "%d", v); err != nil {
				writeErr = err
				return
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		return fromWalk(res), writeErr
	}
	return fromWalk(res), bw.Flush()
}

// WriteSnapshot writes the engine's current graph as "src dst weight"
// lines — one discrete snapshot of the paper's dynamic-graph model
// (Definition 2.1). The output round-trips through FromEdgeList.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	return e.s.Snapshot().WriteEdgeList(w)
}

// CheckInvariants verifies internal structural invariants; it is intended
// for tests and debugging (O(V + E·K)).
func (e *Engine) CheckInvariants() error { return e.s.CheckInvariants() }
