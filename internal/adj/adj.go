// Package adj implements the dynamic adjacency store shared by every engine
// in this repository. It is the Go analogue of the Hornet dynamic-array GPU
// graph container the paper builds on (supplement §9.1): per-vertex growable
// arrays with O(1) append, O(1) swap-delete, and O(1) expected edge lookup.
//
// The store deliberately keeps destination, bias, and fractional-bias
// columns in separate slices (structure-of-arrays), matching both the GPU
// layout of the original system and Go's cache behaviour for the
// scan-dominated baselines (FlowWalker's reservoir pass touches only the
// bias column).
//
// Vertices whose degree exceeds a threshold get an open-addressing index
// (internal/ihash) mapping destination → slot, so edge deletion and
// node2vec's O(1) edge-existence test stay constant-time on hubs while
// low-degree vertices avoid the index's fixed overhead (a linear scan of a
// handful of destinations is both faster and smaller).
package adj

import (
	"fmt"
	"sync/atomic"

	"github.com/bingo-rw/bingo/internal/ihash"
)

// DefaultIndexThreshold is the degree at which a vertex's row is promoted
// to hash-indexed lookup.
const DefaultIndexThreshold = 16

// Lists is a dynamic adjacency store. Use New to create one.
type Lists struct {
	dst  [][]uint32
	bias [][]uint64
	rem  [][]float32 // nil unless float mode
	idx  []*ihash.Map

	floatMode bool
	threshold int
	edges     int64
}

// New creates a store with numVertices vertices and no edges. If floatMode
// is set, each edge additionally carries a float32 fractional bias
// (the paper's §4.3 decimal part). indexThreshold <= 0 selects
// DefaultIndexThreshold.
func New(numVertices int, floatMode bool, indexThreshold int) *Lists {
	if indexThreshold <= 0 {
		indexThreshold = DefaultIndexThreshold
	}
	l := &Lists{
		dst:       make([][]uint32, numVertices),
		bias:      make([][]uint64, numVertices),
		idx:       make([]*ihash.Map, numVertices),
		floatMode: floatMode,
		threshold: indexThreshold,
	}
	if floatMode {
		l.rem = make([][]float32, numVertices)
	}
	return l
}

// NumVertices returns the current vertex-ID space size.
func (l *Lists) NumVertices() int { return len(l.dst) }

// NumEdges returns the live edge count. It is maintained atomically so
// batch workers operating on disjoint rows can update it concurrently.
func (l *Lists) NumEdges() int64 { return atomic.LoadInt64(&l.edges) }

// FloatMode reports whether fractional biases are stored.
func (l *Lists) FloatMode() bool { return l.floatMode }

// EnsureVertex grows the vertex-ID space so that v is addressable.
func (l *Lists) EnsureVertex(v uint32) {
	for int(v) >= len(l.dst) {
		l.dst = append(l.dst, nil)
		l.bias = append(l.bias, nil)
		l.idx = append(l.idx, nil)
		if l.floatMode {
			l.rem = append(l.rem, nil)
		}
	}
}

// Degree returns the out-degree of u.
func (l *Lists) Degree(u uint32) int { return len(l.dst[u]) }

// Dst returns the destination stored at slot i of u's row.
func (l *Lists) Dst(u uint32, i int32) uint32 { return l.dst[u][i] }

// Bias returns the integer bias at slot i of u's row.
func (l *Lists) Bias(u uint32, i int32) uint64 { return l.bias[u][i] }

// Rem returns the fractional bias at slot i of u's row (0 outside float
// mode).
func (l *Lists) Rem(u uint32, i int32) float32 {
	if !l.floatMode {
		return 0
	}
	return l.rem[u][i]
}

// DstRow exposes u's destination column. Callers must not mutate or retain
// it across updates; it is provided for scan-heavy baselines.
func (l *Lists) DstRow(u uint32) []uint32 { return l.dst[u] }

// BiasRow exposes u's bias column under the same contract as DstRow.
func (l *Lists) BiasRow(u uint32) []uint64 { return l.bias[u] }

// RemRow exposes u's fractional-bias column (nil outside float mode).
func (l *Lists) RemRow(u uint32) []float32 {
	if !l.floatMode {
		return nil
	}
	return l.rem[u]
}

// Append adds an edge u→dst and returns its slot index. Duplicate edges are
// allowed (multigraph semantics, required by the paper's batched updates).
func (l *Lists) Append(u, dst uint32, bias uint64, rem float32) int32 {
	i := int32(len(l.dst[u]))
	l.dst[u] = append(l.dst[u], dst)
	l.bias[u] = append(l.bias[u], bias)
	if l.floatMode {
		l.rem[u] = append(l.rem[u], rem)
	}
	atomic.AddInt64(&l.edges, 1)
	if m := l.idx[u]; m != nil {
		m.Add(dst, i)
	} else if len(l.dst[u]) > l.threshold {
		l.buildIndex(u)
	}
	return i
}

// SetRow fills u's empty row in one step with the given columns, which the
// store takes over: dst and bias (and rem in float mode) must have equal
// lengths, and should have capacity equal to it. The edge count moves once
// by the row's degree, and a row above the index threshold gets its hash
// index built once, at its final size — whole-row construction instead of
// an Append per edge, which rehashes the index at every doubling.
func (l *Lists) SetRow(u uint32, dst []uint32, bias []uint64, rem []float32) {
	if len(l.dst[u]) != 0 {
		panic(fmt.Sprintf("adj: SetRow on vertex %d of degree %d", u, len(l.dst[u])))
	}
	l.dst[u], l.bias[u] = dst, bias
	if l.floatMode {
		l.rem[u] = rem
	}
	l.idx[u] = nil
	if len(dst) > l.threshold {
		l.buildIndex(u)
	}
	atomic.AddInt64(&l.edges, int64(len(dst)))
}

func (l *Lists) buildIndex(u uint32) {
	m := &ihash.Map{}
	m.Reserve(len(l.dst[u]))
	for i, d := range l.dst[u] {
		m.Add(d, int32(i))
	}
	l.idx[u] = m
}

// Find returns the slot of some edge u→dst, or -1 if none exists. With
// duplicate edges the choice is unspecified.
func (l *Lists) Find(u, dst uint32) int32 {
	if m := l.idx[u]; m != nil {
		return m.FindAny(dst)
	}
	for i, d := range l.dst[u] {
		if d == dst {
			return int32(i)
		}
	}
	return -1
}

// HasEdge reports whether at least one edge u→dst exists.
func (l *Lists) HasEdge(u, dst uint32) bool { return l.Find(u, dst) >= 0 }

// SwapDelete removes slot i of u's row by moving the last slot into it.
// It returns the slot that was moved into position i (the previous last
// index), or -1 if i was itself the last slot. Callers that maintain
// per-slot side structures (Bingo's groups) use the return value to
// re-point them.
func (l *Lists) SwapDelete(u uint32, i int32) int32 {
	row := l.dst[u]
	last := int32(len(row) - 1)
	if i < 0 || i > last {
		panic(fmt.Sprintf("adj: SwapDelete slot %d out of range (degree %d)", i, len(row)))
	}
	if m := l.idx[u]; m != nil {
		m.Remove(row[i], i)
		if i != last {
			m.Replace(row[last], last, i)
		}
	}
	if i != last {
		l.dst[u][i] = row[last]
		l.bias[u][i] = l.bias[u][last]
		if l.floatMode {
			l.rem[u][i] = l.rem[u][last]
		}
	}
	l.dst[u] = row[:last]
	l.bias[u] = l.bias[u][:last]
	if l.floatMode {
		l.rem[u] = l.rem[u][:last]
	}
	atomic.AddInt64(&l.edges, -1)
	if i == last {
		return -1
	}
	return last
}

// The three methods below are the batch-compaction primitives used by the
// 2-phase parallel delete-and-swap (paper §5.2 / Figure 10(b)): callers
// first Unindex every condemned slot, then Move tail survivors into front
// holes, then Truncate the row.

// Unindex removes slot i's lookup entry without touching the columns.
// Slot i is condemned: it must subsequently be either overwritten by Move
// or dropped by Truncate.
func (l *Lists) Unindex(u uint32, i int32) {
	if m := l.idx[u]; m != nil {
		m.Remove(l.dst[u][i], i)
	}
}

// Move copies slot from into slot to and re-points from's lookup entry.
// Slot to must already be unindexed.
func (l *Lists) Move(u uint32, from, to int32) {
	if from == to {
		return
	}
	if m := l.idx[u]; m != nil {
		m.Replace(l.dst[u][from], from, to)
	}
	l.dst[u][to] = l.dst[u][from]
	l.bias[u][to] = l.bias[u][from]
	if l.floatMode {
		l.rem[u][to] = l.rem[u][from]
	}
}

// Truncate drops every slot >= n of u's row. All dropped slots must have
// been unindexed or moved beforehand.
func (l *Lists) Truncate(u uint32, n int) {
	cur := len(l.dst[u])
	if n > cur {
		panic(fmt.Sprintf("adj: Truncate to %d above degree %d", n, cur))
	}
	atomic.AddInt64(&l.edges, -int64(cur-n))
	l.dst[u] = l.dst[u][:n]
	l.bias[u] = l.bias[u][:n]
	if l.floatMode {
		l.rem[u] = l.rem[u][:n]
	}
}

// SetBias rewrites the bias at slot i. The slot's destination is unchanged.
func (l *Lists) SetBias(u uint32, i int32, bias uint64, rem float32) {
	l.bias[u][i] = bias
	if l.floatMode {
		l.rem[u][i] = rem
	}
}

// Grow reserves capacity for extra edges on u's row, used by batch
// ingestion to avoid repeated reallocation. Reservation is geometric
// (at least double the current capacity) so that successive small batches
// against a hub vertex stay amortized O(1) per edge instead of copying the
// whole row every round.
func (l *Lists) Grow(u uint32, extra int) {
	need := len(l.dst[u]) + extra
	if cap(l.dst[u]) >= need {
		return
	}
	if min := 2 * cap(l.dst[u]); need < min {
		need = min
	}
	nd := make([]uint32, len(l.dst[u]), need)
	copy(nd, l.dst[u])
	l.dst[u] = nd
	nb := make([]uint64, len(l.bias[u]), need)
	copy(nb, l.bias[u])
	l.bias[u] = nb
	if l.floatMode {
		nr := make([]float32, len(l.rem[u]), need)
		copy(nr, l.rem[u])
		l.rem[u] = nr
	}
}

// CopyRow makes u's row a copy of src's row u, slot for slot: destinations,
// biases, remainders and the hash index, each sized to the row's degree.
// u's row must be empty, and src must share the store's float mode.
func (l *Lists) CopyRow(src *Lists, u uint32) {
	l.dst[u] = exact(src.dst[u])
	l.bias[u] = exact(src.bias[u])
	if l.floatMode {
		l.rem[u] = exact(src.rem[u])
	}
	if m := src.idx[u]; m != nil {
		c := m.Clone()
		l.idx[u] = &c
	}
	atomic.AddInt64(&l.edges, int64(len(l.dst[u])))
}

// exact returns a copy of s whose capacity is its length (nil for nil).
func exact[T any](s []T) []T {
	if s == nil {
		return nil
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// Footprint returns the bytes held by the store, including hash indices.
func (l *Lists) Footprint() int64 {
	var b int64
	for u := range l.dst {
		b += int64(cap(l.dst[u]))*4 + int64(cap(l.bias[u]))*8
		if l.floatMode {
			b += int64(cap(l.rem[u])) * 4
		}
		if l.idx[u] != nil {
			b += l.idx[u].Footprint()
		}
	}
	// Slice headers.
	b += int64(len(l.dst)) * 24 * 2
	if l.floatMode {
		b += int64(len(l.dst)) * 24
	}
	b += int64(len(l.idx)) * 8
	return b
}
