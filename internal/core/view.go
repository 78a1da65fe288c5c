package core

import (
	"math/bits"

	"github.com/bingo-rw/bingo/internal/bitutil"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// VertexView is an immutable snapshot of one vertex's full sampling state:
// its adjacency columns, every non-empty radix group (kind, count, member
// list), the decimal group, and the inter-group weights as a cumulative
// distribution. A view samples with exactly the engine's probabilities —
// stage (i) picks a group by weight, stage (ii) picks a member by the
// group's own discipline — but touches no engine state doing it, so any
// number of goroutines may sample one view concurrently, in this process
// or (the fields are plain serializable data, so a view survives a wire
// frame) in another one.
//
// Views are the unit of the hub caches layered above the engine: a walker
// crew keeps hot vertices' views and samples lock-free, and a shard serves
// hub hops for vertices it does not own from views its peers shipped over
// the fabric. Both layers depend on knowing when a view went stale, so a
// view is *versioned*: Epoch carries the extracting concurrent engine's
// view stamp — the global generation packed with the vertex's own seqlock
// version (stamped by the wrapper; the core sampler has no versions) —
// and remote carriers stamp Applied with the owner's cumulative
// applied-update count. A view whose version no longer validates must be
// dropped, never sampled.
type VertexView struct {
	// Vertex is the viewed vertex's ID.
	Vertex graph.VertexID
	// Epoch is the extracting engine's view stamp at extraction:
	// generation<<32 | per-vertex version (version even = stable). Zero
	// on views extracted outside a version domain.
	Epoch uint64
	// Applied is the extracting node's cumulative applied-update count at
	// extraction — the watermark remote caches validate against. Zero
	// unless a shard node stamped it.
	Applied int64
	// RadixBits is the radix width the group IDs decode under.
	RadixBits int
	// Dsts is the adjacency destination column (Dsts[i] is neighbor i).
	Dsts []graph.VertexID
	// Bias is the integer bias column (dense groups reject over it).
	Bias []uint64
	// Rem is the float-mode remainder column (nil in integer mode).
	Rem []float32
	// Groups are the non-empty radix groups, in inter-table slot order:
	// Groups[i] pairs with Cum[i].
	Groups []ViewGroup
	// Cum is the cumulative inter-group weight: Cum[i] is the total mass
	// of slots 0..i, so Cum[len(Cum)-1] is the vertex's total mass. When
	// Dec is set, the final entry belongs to the decimal group.
	Cum []float64
	// Dec reports whether the last Cum slot is the decimal group.
	Dec bool
	// DecList is the decimal group's member list (float mode only).
	DecList []int32
	// DecSum is the decimal group's total remainder mass.
	DecSum float64

	// AliasCut/AliasIdx are a slot-level alias table (Vose) over the
	// adjacency columns, built once at extraction. A draw consumes one
	// RNG word x: the high 128-bit-multiply reduction x·n/2⁶⁴ picks
	// column i uniformly, and the product's low word — uniform and
	// independent of i — accepts i when below AliasCut[i] (the stay
	// probability in fixed-point 2⁶⁴ths), else falls to AliasIdx[i]. The
	// table encodes exactly the two-stage probabilities (slot mass is
	// the bias column plus, in float mode, the remainder column) to
	// within 2⁻⁶⁴ per cut, but a draw costs O(1) — one RNG word, one
	// multiply, one compare — instead of a group scan plus rejection.
	// Views are the unit of the hub caches, where one extraction serves
	// thousands of draws, so the O(degree) build amortizes to nothing;
	// Sample/SampleBatch use the table whenever it is present and fall
	// back to the group walk otherwise (a view assembled without one).
	AliasCut []uint64
	AliasIdx []int32
}

// ViewGroup is one radix group inside a view: enough of the group's
// representation to sample a member uniformly, nothing an update path
// would need (no inverted indices — views are never mutated).
type ViewGroup struct {
	GID   int16
	Kind  GroupKind
	Count int32
	One   int32   // KindOne member
	List  []int32 // KindSparse / KindRegular member list
}

// ViewOf extracts an immutable view of u's sampling state. It reads the
// same structures Sample reads and nothing else, so it is safe under
// exactly the conditions Sample is safe (no concurrent mutation of u's
// row — the concurrent wrapper calls it under the vertex's stripe read
// lock). A vertex outside the current space, or one with no sampleable
// mass, yields a view whose Sample reports ok=false.
func (s *Sampler) ViewOf(u graph.VertexID) VertexView {
	vw := VertexView{Vertex: u, RadixBits: s.cfg.RadixBits}
	if int(u) >= len(s.vx) {
		return vw
	}
	vx := &s.vx[u]
	if vx.dirty {
		panic("core: ViewOf during unfinished batch update")
	}
	if len(vx.buckets) == 0 {
		return vw
	}
	vw.Dsts = append([]graph.VertexID(nil), s.adjs.DstRow(u)...)
	vw.Bias = append([]uint64(nil), s.adjs.BiasRow(u)...)
	if s.cfg.FloatBias {
		vw.Rem = append([]float32(nil), s.adjs.RemRow(u)...)
	}
	// Cum accumulates the bucket weights exactly as rebuildInter computed
	// them: one per group in bucket order, then the decimal group's sum.
	cum := 0.0
	for i := range vx.groups {
		g := &vx.groups[i]
		cum += g.weight(s.cfg.RadixBits)
		vw.Cum = append(vw.Cum, cum)
		vg := ViewGroup{GID: g.gid, Kind: g.kind, Count: g.count, One: g.one}
		if len(g.list) > 0 {
			vg.List = append([]int32(nil), g.list...)
		}
		vw.Groups = append(vw.Groups, vg)
	}
	if len(vx.buckets) > len(vx.groups) {
		vw.Dec = true
		vw.DecList = append([]int32(nil), vx.dec.list...)
		vw.DecSum = vx.dec.sum
		vw.Cum = append(vw.Cum, cum+vx.dec.sum)
	}
	vw.buildAlias()
	return vw
}

// Degree returns the viewed vertex's out-degree at extraction time.
func (vw *VertexView) Degree() int { return len(vw.Dsts) }

// Total returns the view's total sampling mass.
func (vw *VertexView) Total() float64 {
	if len(vw.Cum) == 0 {
		return 0
	}
	return vw.Cum[len(vw.Cum)-1]
}

// buildAlias constructs the slot-level Vose alias table from the view's
// columns (slot weight = bias plus, in float mode, the remainder). Called
// once at extraction; draws then cost O(1) instead of a group scan plus
// rejection. The table encodes exactly bias/Σbias — Vose's construction
// preserves each column's scaled mass to float rounding, and the
// fixed-point cut quantizes each stay probability by at most 2⁻⁶⁴.
func (vw *VertexView) buildAlias() {
	n := len(vw.Dsts)
	if n == 0 {
		return
	}
	total := vw.Total()
	if total <= 0 {
		return
	}
	cut := make([]uint64, n)
	alias := make([]int32, n)
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		w := float64(vw.Bias[i])
		if vw.Rem != nil {
			w += float64(vw.Rem[i])
		}
		s := w * float64(n) / total
		scaled[i] = s
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		cut[s] = fixCut(scaled[s])
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers on either list hold (to rounding) exactly mass 1.
	for _, i := range large {
		cut[i], alias[i] = ^uint64(0), i
	}
	for _, i := range small {
		cut[i], alias[i] = ^uint64(0), i
	}
	vw.AliasCut, vw.AliasIdx = cut, alias
}

// fixCut converts a stay probability in [0,1) to fixed-point 2⁶⁴ths.
func fixCut(p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	if p <= 0 {
		return 0
	}
	return uint64(p * (1 << 63) * 2)
}

// Sample draws a neighbor with probability bias/Σbias from the snapshot —
// through the O(1) alias table when the view carries one, else the
// engine's two-stage draw replayed against frozen state. It is safe
// for concurrent use by any number of goroutines (each with its own RNG)
// and never allocates.
func (vw *VertexView) Sample(r *xrand.RNG) (graph.VertexID, bool) {
	n := len(vw.Cum)
	if n == 0 {
		return 0, false
	}
	total := vw.Cum[n-1]
	if total <= 0 {
		return 0, false
	}
	if ac := vw.AliasCut; len(ac) == len(vw.Dsts) {
		hi, lo := bits.Mul64(r.Uint64(), uint64(len(ac)))
		i := int(hi)
		if lo >= ac[i] {
			i = int(vw.AliasIdx[i])
		}
		return vw.Dsts[i], true
	}
	slot := 0
	if n > 1 {
		x := r.Float64() * total
		for slot < n-1 && x >= vw.Cum[slot] {
			slot++
		}
	}
	var idx int32
	if vw.Dec && slot == n-1 {
		idx = vw.sampleDec(r)
	} else {
		idx = vw.Groups[slot].sample(r, vw.Bias, vw.RadixBits)
	}
	return vw.Dsts[idx], true
}

// SampleBatch draws one neighbor per slot from the snapshot — slot i is
// drawn with rs[i], so every walker parked on this vertex keeps its own
// deterministic stream — in a single pass that hoists the total mass and
// bounds checks out of the per-draw loop. Each slot consumes its stream
// exactly as a per-slot Sample call would, which is what lets the frontier
// kernel's dense mode batch draws for co-located walkers without
// perturbing any walker's stream. Returns false (drawing nothing) when
// the view has no sampleable mass. len(dst) must be at least len(rs).
func (vw *VertexView) SampleBatch(rs []*xrand.RNG, dst []graph.VertexID) bool {
	n := len(vw.Cum)
	if n == 0 {
		return false
	}
	total := vw.Cum[n-1]
	if total <= 0 {
		return false
	}
	if ac := vw.AliasCut; len(ac) == len(vw.Dsts) {
		ai := vw.AliasIdx
		dsts := vw.Dsts
		d := uint64(len(ac))
		for i, r := range rs {
			hi, lo := bits.Mul64(r.Uint64(), d)
			j := int(hi)
			if lo >= ac[j] {
				j = int(ai[j])
			}
			dst[i] = dsts[j]
		}
		return true
	}
	for i, r := range rs {
		slot := 0
		if n > 1 {
			x := r.Float64() * total
			for slot < n-1 && x >= vw.Cum[slot] {
				slot++
			}
		}
		var idx int32
		if vw.Dec && slot == n-1 {
			idx = vw.sampleDec(r)
		} else {
			idx = vw.Groups[slot].sample(r, vw.Bias, vw.RadixBits)
		}
		dst[i] = vw.Dsts[idx]
	}
	return true
}

// SampleBatchOne draws len(dst) neighbors from the snapshot consuming a
// single stream — the batch form callers use when per-walker stream
// identity is already waived (a cached-view hit in the frontier kernel:
// the dense contract there is distributional exactness, not
// draw-for-draw parity). One stream keeps the generator state hot in the
// draw loop instead of paying a scattered state-line fetch per slot.
// Returns false (drawing nothing) when the view has no sampleable mass.
func (vw *VertexView) SampleBatchOne(r *xrand.RNG, dst []graph.VertexID) bool {
	n := len(vw.Cum)
	if n == 0 {
		return false
	}
	total := vw.Cum[n-1]
	if total <= 0 {
		return false
	}
	if ac := vw.AliasCut; len(ac) == len(vw.Dsts) {
		ai := vw.AliasIdx
		dsts := vw.Dsts
		d := uint64(len(ac))
		for i := range dst {
			hi, lo := bits.Mul64(r.Uint64(), d)
			j := int(hi)
			if lo >= ac[j] {
				j = int(ai[j])
			}
			dst[i] = dsts[j]
		}
		return true
	}
	for i := range dst {
		v, ok := vw.Sample(r)
		if !ok {
			return false
		}
		dst[i] = v
	}
	return true
}

// sample draws a member uniformly, mirroring group.sample against the
// view's frozen bias column.
func (vg *ViewGroup) sample(r *xrand.RNG, biasRow []uint64, radixBits int) int32 {
	switch vg.Kind {
	case KindOne:
		return vg.One
	case KindSparse, KindRegular:
		return vg.List[r.Intn(int(vg.Count))]
	case KindDense:
		j, v := decodeGID(vg.GID, radixBits)
		d := len(biasRow)
		for {
			i := r.Intn(d)
			if bitutil.Digit(biasRow[i], j, radixBits) == v {
				return int32(i)
			}
		}
	default:
		panic("core: sample from empty view group")
	}
}

// sampleDec mirrors decGroup.sample: bounded rejection over the frozen
// remainder column, then an exact CDF fallback.
func (vw *VertexView) sampleDec(r *xrand.RNG) int32 {
	n := len(vw.DecList)
	if n == 0 {
		panic("core: sample from empty decimal view group")
	}
	for round := 0; round < rejectionCap; round++ {
		idx := vw.DecList[r.Intn(n)]
		if float64(vw.Rem[idx]) > r.Float64() {
			return idx
		}
	}
	x := r.Float64() * vw.DecSum
	acc := 0.0
	for _, idx := range vw.DecList {
		acc += float64(vw.Rem[idx])
		if x < acc {
			return idx
		}
	}
	return vw.DecList[n-1] // numerical tail
}

// Probabilities returns the exact per-adjacency-slot sampling
// probabilities the view encodes (test and verification helper; the
// live-path mirror of Sampler.VertexProbabilities).
func (vw *VertexView) Probabilities() map[int32]float64 {
	out := map[int32]float64{}
	total := vw.Total()
	if total == 0 {
		return out
	}
	for _, g := range vw.Groups {
		j, v := decodeGID(g.GID, vw.RadixBits)
		sub := float64(v) * pow2(vw.RadixBits*j)
		switch g.Kind {
		case KindOne:
			out[g.One] += sub / total
		case KindSparse, KindRegular:
			for _, m := range g.List {
				out[m] += sub / total
			}
		case KindDense:
			for i, b := range vw.Bias {
				if bitutil.Digit(b, j, vw.RadixBits) == v {
					out[int32(i)] += sub / total
				}
			}
		}
	}
	for _, m := range vw.DecList {
		out[m] += float64(vw.Rem[m]) / total
	}
	return out
}
