package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/bingo-rw/bingo/internal/adj"
	"github.com/bingo-rw/bingo/internal/bitutil"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/sampling"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// vertex is the per-vertex sampling state: the radix groups, the decimal
// group (float mode), and the inter-group alias table (paper Figure 4).
//
// The alias table is one bucket per group in groups order, then one for the
// decimal group when it carries mass: bucket i draws groups[i], and the
// bucket past the last group draws dec. rebuildInter compacts groups before
// building the buckets, so the correspondence needs no slot map. The build
// scratch (the weights and Vose worklists) lives on the rebuilding
// goroutine's stack, never in the record.
type vertex struct {
	groups  []group // non-empty groups, sorted by gid
	buckets []bucket
	total   float64   // Σ bucket weights: the vertex's (scaled) mass
	dec     *decGroup // float mode only; nil until the vertex gets an edge
	dirty   bool      // buckets stale; only ever true inside ApplyBatch
}

// bucket is one Vose alias bucket: keep this bucket's index with
// probability prob, else take alias.
type bucket struct {
	prob  float64
	alias int32
}

// pick performs stage (i) of the two-stage draw: an alias draw over the
// buckets, skipped when there is only one. The caller has checked that
// buckets is non-empty. It consumes the RNG exactly as
// sampling.AliasTable.Sample does.
func (vx *vertex) pick(r *xrand.RNG) int {
	b := vx.buckets
	if len(b) == 1 {
		return 0
	}
	i := r.Intn(len(b))
	if r.Float64() < b[i].prob {
		return i
	}
	return int(b[i].alias)
}

// decimal returns the vertex's decimal group, creating it on first use.
func (vx *vertex) decimal() *decGroup {
	if vx.dec == nil {
		vx.dec = &decGroup{}
	}
	return vx.dec
}

// findGroup returns the slice position of gid, or the insertion point with
// found == false.
func (vx *vertex) findGroup(gid int16) (int, bool) {
	// Groups are few (≤ K ≈ log2 max bias); a linear scan beats binary
	// search at this size and is branch-predictable.
	for i := range vx.groups {
		if vx.groups[i].gid >= gid {
			return i, vx.groups[i].gid == gid
		}
	}
	return len(vx.groups), false
}

// ensureGroup returns the group for gid, creating an empty one in sorted
// position if needed. A full slice grows by exactly one group: a vertex
// keeps its group count from one update to the next, so amortized
// doubling would only leave a slack tail in every touched record.
func (vx *vertex) ensureGroup(gid int16) *group {
	i, ok := vx.findGroup(gid)
	if !ok {
		n := len(vx.groups)
		if n == cap(vx.groups) {
			grown := make([]group, n, n+1)
			copy(grown, vx.groups)
			vx.groups = grown
		}
		vx.groups = vx.groups[:n+1]
		copy(vx.groups[i+1:], vx.groups[i:])
		vx.groups[i] = group{gid: gid, kind: KindEmpty, one: -1}
	}
	return &vx.groups[i]
}

// compactGroups drops emptied groups, and the slice's capacity with them
// once less than half of it is in use.
func (vx *vertex) compactGroups() {
	out := vx.groups[:0]
	for i := range vx.groups {
		if vx.groups[i].count > 0 {
			out = append(out, vx.groups[i])
		}
	}
	// Zero the stale copies past the new length so they pin no storage.
	clear(vx.groups[len(out):])
	if len(out) < cap(out)/2 {
		out = append([]group(nil), out...)
	}
	vx.groups = out
}

// Sampler is the Bingo engine: the dynamic graph plus the full radix-based
// sampling structure. It is safe for concurrent Sample calls; updates
// require external serialization with respect to sampling (the paper's
// engine likewise orders updates before each walk computation).
type Sampler struct {
	cfg  Config // effective: Lambda holds the λ in use
	adjs *adj.Lists
	vx   []vertex

	// cc accumulates group-conversion statistics (Table 4). Batch workers
	// accumulate locally and merge, so only streaming updates touch this
	// directly.
	cc convCounters

	// Phase timers (Config.Instrument): cumulative nanoseconds spent in
	// the batched reorder, insert/delete and rebuild, for Figure 13.
	reorderNs, insDelNs, rebuildNs atomic.Int64
}

// PhaseTimes is the Figure 13 batched-update time breakdown.
type PhaseTimes struct {
	// Reorder is the wall time of sorting each batch by source and
	// partitioning it into per-source runs.
	Reorder               time.Duration
	InsertDelete, Rebuild time.Duration
}

// PhaseTimes returns cumulative batched-update phase timings (zero unless
// Config.Instrument is set).
func (s *Sampler) PhaseTimes() PhaseTimes {
	return PhaseTimes{
		Reorder:      time.Duration(s.reorderNs.Load()),
		InsertDelete: time.Duration(s.insDelNs.Load()),
		Rebuild:      time.Duration(s.rebuildNs.Load()),
	}
}

// ResetPhaseTimes zeroes the Figure 13 timers.
func (s *Sampler) ResetPhaseTimes() {
	s.reorderNs.Store(0)
	s.insDelNs.Store(0)
	s.rebuildNs.Store(0)
}

// convCounters tracks group representation transitions (Table 4): conv
// counts conversions from→to; touches counts group visits during updates
// (the denominator of the paper's conversion ratios). Mutators always
// accumulate into a caller-local instance with plain increments (the hot
// path stays atomics-free) and fold it into the sampler's shared counters
// via merge, whose destination adds are atomic — with the concurrent
// wrapper (internal/concurrent), updates on distinct vertices merge in
// parallel.
type convCounters struct {
	conv    [NumKinds][NumKinds]int64
	touches [NumKinds]int64
}

func (c *convCounters) touch(k GroupKind)             { c.touches[k]++ }
func (c *convCounters) conversion(from, to GroupKind) { c.conv[from][to]++ }

// merge atomically folds o into c, skipping zero entries (a streaming op
// touches only a handful of kinds). c may be shared; o must be local to
// the caller.
func (c *convCounters) merge(o *convCounters) {
	for i := range c.conv {
		for j := range c.conv[i] {
			if v := o.conv[i][j]; v != 0 {
				atomic.AddInt64(&c.conv[i][j], v)
			}
		}
		if v := o.touches[i]; v != 0 {
			atomic.AddInt64(&c.touches[i], v)
		}
	}
}

// ConversionStats returns the accumulated conversion matrix and per-kind
// touch counts since construction (or the last ResetConversionStats).
func (s *Sampler) ConversionStats() (conv [NumKinds][NumKinds]int64, touches [NumKinds]int64) {
	for i := range s.cc.conv {
		for j := range s.cc.conv[i] {
			conv[i][j] = atomic.LoadInt64(&s.cc.conv[i][j])
		}
		touches[i] = atomic.LoadInt64(&s.cc.touches[i])
	}
	return conv, touches
}

// ResetConversionStats zeroes the Table 4 counters.
func (s *Sampler) ResetConversionStats() { s.cc = convCounters{} }

// New creates an empty sampler over numVertices vertices.
func New(numVertices int, cfg Config) (*Sampler, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if cfg.FloatBias && cfg.Lambda == 0 {
		cfg.Lambda = 1024 // no snapshot to calibrate against
	}
	return &Sampler{
		cfg:  cfg,
		adjs: adj.New(numVertices, cfg.FloatBias, cfg.IndexThreshold),
		vx:   make([]vertex, numVertices),
	}, nil
}

// NewFromCSR creates a sampler initialized with a snapshot. In float-bias
// mode the snapshot's integer and fractional bias columns are combined into
// w = Bias + FBias and scaled by λ (auto-calibrated from the snapshot when
// Config.Lambda is zero, targeting W_D/(W_I+W_D) < 1/d as in §4.4). Rows
// are built on Config.Workers goroutines; the records do not depend on
// how many, and an invalid edge is reported for the lowest failing vertex
// and slot.
func NewFromCSR(g *graph.CSR, cfg Config) (*Sampler, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if cfg.FloatBias && cfg.Lambda == 0 {
		maxDeg := 0
		for u := 0; u < g.NumVertices(); u++ {
			if d := g.Degree(graph.VertexID(u)); d > maxDeg {
				maxDeg = d
			}
		}
		cfg.Lambda = max(float64(bitutil.NextPow2(uint64(maxDeg))), 1024)
	}
	n := g.NumVertices()
	s := &Sampler{
		cfg:  cfg,
		adjs: adj.New(n, cfg.FloatBias, cfg.IndexThreshold),
		vx:   make([]vertex, n),
	}
	// Vertices are built in chunks of applyChunk on cfg.Workers goroutines.
	// A worker stops claiming after its first error; every chunk below a
	// failing one was claimed before it and runs to completion, so the
	// lowest failing vertex (and, within it, slot) is the one reported.
	var mu sync.Mutex
	errAt, firstErr := n, error(nil)
	var failed atomic.Bool
	parallelClaim(cfg.Workers, (n+applyChunk-1)/applyChunk, func(claim func() (int, bool)) {
		bb := newBulkBuild(cfg.RadixBits)
		for !failed.Load() {
			c, ok := claim()
			if !ok {
				return
			}
			for u := c * applyChunk; u < min(n, (c+1)*applyChunk); u++ {
				if err := s.buildRowFromCSR(g, graph.VertexID(u), bb); err != nil {
					mu.Lock()
					if u < errAt {
						errAt, firstErr = u, err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return s, nil
}

// buildRowFromCSR validates and scales u's snapshot row, fills the
// adjacency row with it in one step and bulk-builds the record.
func (s *Sampler) buildRowFromCSR(g *graph.CSR, u graph.VertexID, bb *bulkBuild) error {
	dsts := g.Neighbors(u)
	biases := g.Biases(u)
	fb := g.FBiases(u)
	d := len(dsts)
	bias := make([]uint64, d)
	var rem []float32
	if s.cfg.FloatBias {
		rem = make([]float32, d)
	}
	for i := range dsts {
		if s.cfg.FloatBias {
			w := float64(biases[i])
			if fb != nil {
				w += fb[i]
			}
			if err := checkFloatWeight(w, s.cfg.Lambda); err != nil {
				return fmt.Errorf("edge (%d,%d): %w", u, dsts[i], err)
			}
			bias[i], rem[i] = splitFloatBias(w, s.cfg.Lambda)
		} else {
			bias[i] = biases[i]
		}
		if bias[i] == 0 && (rem == nil || rem[i] == 0) {
			return fmt.Errorf("%w: edge (%d,%d)", ErrZeroBias, u, dsts[i])
		}
	}
	if d > 0 {
		s.adjs.SetRow(u, exact(dsts), bias, rem)
	}
	s.bulkBuildVertex(u, bb)
	return nil
}

// bulkBuild is bulkBuildVertex's scratch, reused across one NewFromCSR:
// slot[gid] counts a group's members during the count pass and holds its
// position in the vertex's groups during the fill pass; touched lists the
// gids in use, so resetting slot costs O(groups), not O(gid space).
type bulkBuild struct {
	slot    []int32
	touched []int16
}

func newBulkBuild(radixBits int) *bulkBuild {
	return &bulkBuild{slot: make([]int32, gidSpace(radixBits))}
}

// gidSpace is the number of group ids a radix width addresses.
func gidSpace(radixBits int) int {
	perPos := 1<<radixBits - 1
	positions := (64 + radixBits - 1) / radixBits
	return positions * perPos
}

// bulkBuildVertex constructs a vertex's groups from its adjacency row in
// one pass, classifying each group once (exact Equation 9) — the O(d·K)
// initial construction.
func (s *Sampler) bulkBuildVertex(u graph.VertexID, bb *bulkBuild) {
	vx := &s.vx[u]
	biasRow := s.adjs.BiasRow(u)
	d := len(biasRow)
	b := s.cfg.RadixBits
	// Count pass.
	for _, w := range biasRow {
		n := bitutil.NumDigits(w, b)
		for j := 0; j < n; j++ {
			if v := bitutil.Digit(w, j, b); v != 0 {
				gid := gidOf(j, v, b)
				if bb.slot[gid] == 0 {
					bb.touched = append(bb.touched, gid)
				}
				bb.slot[gid]++
			}
		}
	}
	slices.Sort(bb.touched)
	vx.groups = make([]group, len(bb.touched))
	for i, gid := range bb.touched {
		c := bb.slot[gid]
		kind := KindRegular
		if s.cfg.Adaptive {
			kind = classify(c, d, s.cfg.AlphaPct, s.cfg.BetaPct)
		}
		g := &vx.groups[i]
		*g = group{gid: gid, kind: kind, one: -1}
		// Representations that carry members get their storage here; count
		// is re-accumulated in the fill pass.
		if kind == KindSparse || kind == KindRegular {
			g.list = make([]int32, 0, c)
			g.initIndex(d)
		}
		bb.slot[gid] = int32(i)
	}
	// Fill pass.
	for idx := int32(0); idx < int32(d); idx++ {
		w := biasRow[idx]
		n := bitutil.NumDigits(w, b)
		for j := 0; j < n; j++ {
			v := bitutil.Digit(w, j, b)
			if v == 0 {
				continue
			}
			g := &vx.groups[bb.slot[gidOf(j, v, b)]]
			switch g.kind {
			case KindDense:
				g.count++
			case KindOne:
				g.one = idx
				g.count++
			default:
				g.inv0add(idx)
			}
		}
	}
	for _, gid := range bb.touched {
		bb.slot[gid] = 0
	}
	bb.touched = bb.touched[:0]
	if s.cfg.FloatBias && d > 0 {
		dec := vx.decimal()
		dec.growInv(d)
		remRow := s.adjs.RemRow(u)
		for idx := int32(0); idx < int32(d); idx++ {
			dec.add(idx, remRow[idx])
		}
	}
	s.rebuildInter(u)
}

// inv0add appends a member during bulk build (list pre-sized, inv already
// allocated for regular groups).
func (g *group) inv0add(idx int32) {
	switch g.kind {
	case KindSparse:
		g.ix.sinv.Add(uint32(idx), g.count)
		g.list = append(g.list, idx)
	case KindRegular:
		g.ix.inv[idx] = g.count
		g.list = append(g.list, idx)
	default:
		panic("core: inv0add on kind without list")
	}
	g.count++
}

// NumVertices returns the vertex-ID space size.
func (s *Sampler) NumVertices() int { return len(s.vx) }

// NumEdges returns the live edge count.
func (s *Sampler) NumEdges() int64 { return s.adjs.NumEdges() }

// Degree returns the out-degree of u.
func (s *Sampler) Degree(u graph.VertexID) int {
	if int(u) >= len(s.vx) {
		return 0
	}
	return s.adjs.Degree(u)
}

// HasEdge reports whether at least one edge u→dst is live (O(1) expected).
func (s *Sampler) HasEdge(u, dst graph.VertexID) bool {
	if int(u) >= len(s.vx) {
		return false
	}
	return s.adjs.HasEdge(u, dst)
}

// Neighbor returns the destination at adjacency slot i of u.
func (s *Sampler) Neighbor(u graph.VertexID, i int32) graph.VertexID {
	return s.adjs.Dst(u, i)
}

// Lambda returns the float-bias amortization factor in use (0 in integer
// mode with no calibration).
func (s *Sampler) Lambda() float64 { return s.cfg.Lambda }

// Config returns the sampler's effective configuration, λ included:
// New(n, s.Config()) starts an empty sampler that factorizes as s does.
func (s *Sampler) Config() Config { return s.cfg }

// TotalBias returns the total sampling mass at u (scaled mass in float
// mode).
func (s *Sampler) TotalBias(u graph.VertexID) float64 {
	return s.vx[u].total
}

func (s *Sampler) ensureVertex(u graph.VertexID) {
	s.adjs.EnsureVertex(u)
	for int(u) >= len(s.vx) {
		s.vx = append(s.vx, vertex{})
	}
}

// Insert adds edge u→dst with an integer bias (streaming path, §4.2:
// append to each radix group, then rebuild the inter-group alias; O(K)).
func (s *Sampler) Insert(u, dst graph.VertexID, bias uint64) error {
	if bias == 0 {
		return fmt.Errorf("%w: insert (%d,%d)", ErrZeroBias, u, dst)
	}
	if s.cfg.FloatBias {
		// Interpret the integer bias as weight w = bias in float mode.
		return s.InsertFloat(u, dst, float64(bias))
	}
	s.ensureVertex(u)
	s.ensureVertex(dst)
	var cc convCounters
	s.insertEdge(u, dst, bias, 0, &cc)
	s.rebuildInter(u)
	s.cc.merge(&cc)
	return nil
}

// InsertFloat adds edge u→dst with a float bias (float mode only).
func (s *Sampler) InsertFloat(u, dst graph.VertexID, w float64) error {
	if !s.cfg.FloatBias {
		return fmt.Errorf("core: InsertFloat on integer-bias sampler")
	}
	if w <= 0 {
		return fmt.Errorf("%w: insert (%d,%d) weight %v", ErrZeroBias, u, dst, w)
	}
	if err := checkFloatWeight(w, s.cfg.Lambda); err != nil {
		return err
	}
	ib, rem := splitFloatBias(w, s.cfg.Lambda)
	if ib == 0 && rem == 0 {
		return fmt.Errorf("%w: insert (%d,%d) weight %v underflows λ=%v", ErrZeroBias, u, dst, w, s.cfg.Lambda)
	}
	s.ensureVertex(u)
	s.ensureVertex(dst)
	var cc convCounters
	s.insertEdge(u, dst, ib, rem, &cc)
	s.rebuildInter(u)
	s.cc.merge(&cc)
	return nil
}

// insertEdge performs the intra-group part of an insertion (paper Figure 5
// step (i): append) without rebuilding the inter-group table.
func (s *Sampler) insertEdge(u, dst graph.VertexID, bias uint64, rem float32, cc *convCounters) {
	idx := s.adjs.Append(u, dst, bias, rem)
	vx := &s.vx[u]
	d := s.adjs.Degree(u)
	// Every regular inverted index (and the decimal one) tracks degree.
	for i := range vx.groups {
		vx.groups[i].growInv(d)
	}
	if s.cfg.FloatBias {
		dec := vx.decimal()
		dec.growInv(d)
		dec.add(idx, rem)
	}
	b := s.cfg.RadixBits
	biasRow := s.adjs.BiasRow(u)
	n := bitutil.NumDigits(bias, b)
	for j := 0; j < n; j++ {
		v := bitutil.Digit(bias, j, b)
		if v == 0 {
			continue
		}
		g := vx.ensureGroup(gidOf(j, v, b))
		cc.touch(g.kind)
		if g.kind == KindOne {
			// Occupied one-element group must grow a representation
			// before accepting a second member.
			target := KindRegular
			if s.cfg.Adaptive {
				target = classify(g.count+1, d, s.cfg.AlphaPct, s.cfg.BetaPct)
				if target == KindOne {
					target = KindSparse
				}
			}
			s.convert(g, target, d, biasRow, cc)
		}
		g.add(idx)
		s.maybeConvertStreaming(g, d, biasRow, cc)
	}
}

// deleteEdge performs the intra-group part of a deletion (paper Figure 6):
// radix-decompose the bias, delete-and-swap in each group, swap-delete the
// adjacency slot, and re-point the moved neighbor's group entries.
// It does not rebuild the inter-group table.
func (s *Sampler) deleteEdge(u graph.VertexID, idx int32, cc *convCounters) {
	vx := &s.vx[u]
	bias := s.adjs.Bias(u, idx)
	rem := s.adjs.Rem(u, idx)
	b := s.cfg.RadixBits
	n := bitutil.NumDigits(bias, b)
	for j := 0; j < n; j++ {
		v := bitutil.Digit(bias, j, b)
		if v == 0 {
			continue
		}
		i, ok := vx.findGroup(gidOf(j, v, b))
		if !ok {
			panic(fmt.Sprintf("core: bias digit (%d,%d) of edge (%d,#%d) has no group", j, v, u, idx))
		}
		cc.touch(vx.groups[i].kind)
		vx.groups[i].remove(idx)
	}
	if s.cfg.FloatBias {
		vx.dec.remove(idx, rem)
	}
	moved := s.adjs.SwapDelete(u, idx)
	if moved >= 0 {
		mbias := s.adjs.Bias(u, idx) // the moved neighbor, now at idx
		mn := bitutil.NumDigits(mbias, b)
		for j := 0; j < mn; j++ {
			v := bitutil.Digit(mbias, j, b)
			if v == 0 {
				continue
			}
			i, ok := vx.findGroup(gidOf(j, v, b))
			if !ok {
				panic(fmt.Sprintf("core: moved neighbor digit (%d,%d) has no group", j, v))
			}
			vx.groups[i].rename(moved, idx)
		}
		if s.cfg.FloatBias {
			vx.dec.rename(moved, idx)
		}
	}
	d := s.adjs.Degree(u)
	biasRow := s.adjs.BiasRow(u)
	for i := range vx.groups {
		vx.groups[i].shrinkInv(d)
		s.maybeConvertStreaming(&vx.groups[i], d, biasRow, cc)
	}
	if s.cfg.FloatBias {
		vx.dec.shrinkInv(d)
	}
}

// Delete removes one live instance of edge u→dst (streaming path).
func (s *Sampler) Delete(u, dst graph.VertexID) error {
	if int(u) >= len(s.vx) {
		return fmt.Errorf("%w: vertex %d", ErrVertexRange, u)
	}
	idx := s.adjs.Find(u, dst)
	if idx < 0 {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeNotFound, u, dst)
	}
	var cc convCounters
	s.deleteEdge(u, idx, &cc)
	s.rebuildInter(u)
	s.cc.merge(&cc)
	return nil
}

// convert rebuilds g in the target representation, recording the transition
// for Table 4.
func (s *Sampler) convert(g *group, target GroupKind, d int, biasRow []uint64, cc *convCounters) {
	if g.kind == target {
		return
	}
	cc.conversion(g.kind, target)
	g.convertTo(target, d, biasRow, s.cfg.RadixBits, nil)
}

// maybeConvertStreaming applies the hysteresis conversion policy after a
// streaming update touched g.
func (s *Sampler) maybeConvertStreaming(g *group, d int, biasRow []uint64, cc *convCounters) {
	if g.count == 0 {
		return
	}
	if !s.cfg.Adaptive {
		if g.kind != KindRegular {
			s.convert(g, KindRegular, d, biasRow, cc)
		}
		return
	}
	if target, ok := wantConvert(g.kind, g.count, d, s.cfg.AlphaPct, s.cfg.BetaPct); ok {
		s.convert(g, target, d, biasRow, cc)
	}
}

// stackBuckets is the bucket count rebuildInter builds in stack scratch:
// every group of a binary radix (64 digit positions) plus the decimal
// group. Wider radixes fall back to heap scratch above it.
const stackBuckets = 65

// rebuildInter rebuilds u's inter-group alias table (paper Figure 5 step
// (ii)). O(number of groups) = O(K). It compacts the groups first, so
// bucket i is group i and the decimal bucket, when present, is last.
func (s *Sampler) rebuildInter(u graph.VertexID) {
	vx := &s.vx[u]
	vx.compactGroups()
	n := len(vx.groups)
	hasDec := vx.dec != nil && vx.dec.count() > 0 && vx.dec.sum > 0
	if hasDec {
		n++
	}
	var wbuf [stackBuckets]float64
	var abuf, sbuf, lbuf [stackBuckets]int32
	w, alias := wbuf[:], abuf[:]
	if n > stackBuckets {
		w, alias = make([]float64, n), make([]int32, n)
	}
	w, alias = w[:n], alias[:n]
	for i := range vx.groups {
		w[i] = vx.groups[i].weight(s.cfg.RadixBits)
	}
	if hasDec {
		w[n-1] = vx.dec.sum
	}
	// The weights become the stay probabilities in place.
	vx.total, _, _ = sampling.Vose(w, w, alias, sbuf[:0], lbuf[:0])
	if vx.total == 0 {
		n = 0
	}
	if cap(vx.buckets) < n || n < cap(vx.buckets)/2 {
		vx.buckets = make([]bucket, n)
	}
	vx.buckets = vx.buckets[:n]
	for i := range vx.buckets {
		vx.buckets[i] = bucket{prob: w[i], alias: alias[i]}
	}
	vx.dirty = false
}

// Sample draws a neighbor of u with probability bias/Σbias (Theorem 4.1)
// in O(1): stage (i) alias-samples a group, stage (ii) uniform-samples a
// member. The second result is false when u has no sampleable mass.
// Sample is safe for concurrent use by multiple walkers.
func (s *Sampler) Sample(u graph.VertexID, r *xrand.RNG) (graph.VertexID, bool) {
	if int(u) >= len(s.vx) {
		return 0, false
	}
	vx := &s.vx[u]
	if vx.dirty {
		panic("core: Sample during unfinished batch update")
	}
	if len(vx.buckets) == 0 {
		return 0, false
	}
	var idx int32
	if gi := vx.pick(r); gi < len(vx.groups) {
		idx = vx.groups[gi].sample(r, s.adjs.BiasRow(u), s.cfg.RadixBits)
	} else {
		idx = vx.dec.sample(r, s.adjs.RemRow(u))
	}
	return s.adjs.Dst(u, idx), true
}

// SampleFrontier draws next[i], ok[i] = Sample(cur[i], rs[i]) for every
// slot i of a walker frontier, staged: instead of one slot's whole chain
// of dependent loads at a time, it makes one pass per link across all
// slots — vertex record and bucket pick, then group header and member
// draw, then the adjacency destination — so the cache misses of
// different slots overlap. next carries the picked group, then the
// adjacency slot, between passes. Each slot consumes rs[i] exactly as
// Sample would, so the draws are identical as long as no two slots share
// a stream. rs, next and ok must be at least as long as cur.
func (s *Sampler) SampleFrontier(cur []graph.VertexID, rs []*xrand.RNG, next []graph.VertexID, ok []bool) {
	rs, next, ok = rs[:len(cur)], next[:len(cur)], ok[:len(cur)]
	for i, u := range cur {
		ok[i] = false
		if int(u) >= len(s.vx) {
			continue
		}
		vx := &s.vx[u]
		if vx.dirty {
			panic("core: Sample during unfinished batch update")
		}
		if len(vx.buckets) > 0 {
			next[i] = graph.VertexID(vx.pick(rs[i]))
			ok[i] = true
		}
	}
	for i, u := range cur {
		if !ok[i] {
			continue
		}
		vx := &s.vx[u]
		var idx int32
		if gi := int(next[i]); gi < len(vx.groups) {
			g := &vx.groups[gi]
			var biasRow []uint64 // only rejection over a dense group reads it
			if g.kind == KindDense {
				biasRow = s.adjs.BiasRow(u)
			}
			idx = g.sample(rs[i], biasRow, s.cfg.RadixBits)
		} else {
			idx = vx.dec.sample(rs[i], s.adjs.RemRow(u))
		}
		next[i] = graph.VertexID(idx)
	}
	for i, u := range cur {
		if ok[i] {
			next[i] = s.adjs.Dst(u, int32(next[i]))
		}
	}
}

// SampleSlot is Sample returning the adjacency slot instead of the
// destination, for engines that need the edge's attributes.
func (s *Sampler) SampleSlot(u graph.VertexID, r *xrand.RNG) (int32, bool) {
	if int(u) >= len(s.vx) {
		return -1, false
	}
	vx := &s.vx[u]
	if len(vx.buckets) == 0 {
		return -1, false
	}
	if gi := vx.pick(r); gi < len(vx.groups) {
		return vx.groups[gi].sample(r, s.adjs.BiasRow(u), s.cfg.RadixBits), true
	}
	return vx.dec.sample(r, s.adjs.RemRow(u)), true
}

var (
	groupStructSize  = int64(unsafe.Sizeof(group{}))
	groupIndexSize   = int64(unsafe.Sizeof(groupIndex{}))
	vertexStructSize = int64(unsafe.Sizeof(vertex{}))
	bucketSize       = int64(unsafe.Sizeof(bucket{}))
	decGroupSize     = int64(unsafe.Sizeof(decGroup{}))
)

// Footprint returns the total bytes held by the sampler: adjacency,
// vertex records, group structures, inverted indices, and alias tables.
// This is the quantity reported in the paper's memory columns;
// CollectFootprint splits it by structure.
func (s *Sampler) Footprint() int64 { return s.CollectFootprint().Total }
