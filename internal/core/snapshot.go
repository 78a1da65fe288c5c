package core

import (
	"github.com/bingo-rw/bingo/internal/adj"
	"github.com/bingo-rw/bingo/internal/graph"
)

// Snapshot materializes the current graph state as an immutable CSR — one
// discrete snapshot G_t of the paper's dynamic-graph model (Definition
// 2.1). In float mode, weights are exported as integer part Bias plus
// fractional FBias in *unscaled* user units (the λ scaling is undone), so
// NewFromCSR(snapshot, cfg) reconstructs an equivalent sampler.
func (s *Sampler) Snapshot() *graph.CSR {
	n := s.NumVertices()
	csr := &graph.CSR{
		Offsets: make([]int64, n+1),
		Dst:     make([]graph.VertexID, 0, s.NumEdges()),
		Bias:    make([]uint64, 0, s.NumEdges()),
	}
	if s.cfg.FloatBias {
		csr.FBias = make([]float64, 0, s.NumEdges())
	}
	for u := 0; u < n; u++ {
		vid := graph.VertexID(u)
		d := s.adjs.Degree(vid)
		for i := int32(0); i < int32(d); i++ {
			csr.Dst = append(csr.Dst, s.adjs.Dst(vid, i))
			if s.cfg.FloatBias {
				w := (float64(s.adjs.Bias(vid, i)) + float64(s.adjs.Rem(vid, i))) / s.cfg.Lambda
				ib := uint64(w)
				csr.Bias = append(csr.Bias, ib)
				csr.FBias = append(csr.FBias, w-float64(ib))
			} else {
				csr.Bias = append(csr.Bias, s.adjs.Bias(vid, i))
			}
		}
		csr.Offsets[u+1] = int64(len(csr.Dst))
	}
	return csr
}

// CopyRows returns a sampler over the same vertex space, with s's Config
// (λ included), that holds deep copies of the records of the vertices
// keep accepts and empty rows elsewhere: each copied vertex keeps its
// adjacency row and hash index slot for slot, its groups with their kinds,
// member lists and inverted indices, its alias buckets and its decimal
// group, so it draws exactly what s draws and takes later updates exactly
// as s would. Copies are sized to their contents; nothing is shared with
// s, which must not be mutated during the call. It is how one engine is
// cut into the per-shard engines of a sharded service without re-inserting
// a single edge.
func (s *Sampler) CopyRows(keep func(graph.VertexID) bool) *Sampler {
	c := &Sampler{
		cfg:  s.cfg,
		adjs: adj.New(len(s.vx), s.cfg.FloatBias, s.cfg.IndexThreshold),
		vx:   make([]vertex, len(s.vx)),
	}
	for u := range s.vx {
		vid := graph.VertexID(u)
		if !keep(vid) {
			continue
		}
		c.adjs.CopyRow(s.adjs, vid)
		c.vx[u] = s.vx[u].clone()
	}
	return c
}

// clone deep-copies a vertex record.
func (vx *vertex) clone() vertex {
	c := vertex{buckets: exact(vx.buckets), total: vx.total, dirty: vx.dirty}
	if vx.groups != nil {
		c.groups = make([]group, len(vx.groups))
		for i := range vx.groups {
			c.groups[i] = vx.groups[i].clone()
		}
	}
	if dg := vx.dec; dg != nil {
		c.dec = &decGroup{list: exact(dg.list), inv: exact(dg.inv), sum: dg.sum}
	}
	return c
}

// clone deep-copies a group: header, member list and inverted index.
func (g *group) clone() group {
	c := *g
	if g.list != nil {
		c.list = exact(g.list)
	}
	if g.ix != nil {
		c.ix = &groupIndex{inv: exact(g.ix.inv), sinv: g.ix.sinv.Clone()}
	}
	return c
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
