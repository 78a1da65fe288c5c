package core

import (
	"github.com/bingo-rw/bingo/internal/graph"
)

// GroupStats aggregates group-structure statistics across all vertices,
// feeding Figures 9 (group element ratios) and 11 (group-kind ratios);
// CollectFootprint is the memory breakdown.
type GroupStats struct {
	// Groups counts groups by representation kind.
	Groups [NumKinds]int64
	// PosElements[j] is the number of sub-biases stored at digit position
	// j across the graph (Figure 9's per-group element counts).
	PosElements []int64
	// PosVertices[j] is the number of vertices with at least one neighbor
	// in digit position j; Figure 9's "group element ratio" for position j
	// is PosElements[j] / Σ_v degree(v) over those vertices. We report
	// the simpler graph-wide ratio PosElements[j]/TotalEdges·avgFanout.
	PosVertices []int64
	// Elements is the total sub-bias count Σ_i popc(w_i) (t·d in §4.4).
	Elements int64
	// DecimalMembers counts decimal-group members (float mode).
	DecimalMembers int64
}

// CollectGroupStats scans every vertex's groups.
func (s *Sampler) CollectGroupStats() GroupStats {
	var gs GroupStats
	for u := range s.vx {
		vx := &s.vx[u]
		for i := range vx.groups {
			g := &vx.groups[i]
			gs.Groups[g.kind]++
			j, _ := decodeGID(g.gid, s.cfg.RadixBits)
			for len(gs.PosElements) <= j {
				gs.PosElements = append(gs.PosElements, 0)
				gs.PosVertices = append(gs.PosVertices, 0)
			}
			gs.PosElements[j] += int64(g.count)
			gs.PosVertices[j]++
			gs.Elements += int64(g.count)
		}
		if vx.dec != nil {
			gs.DecimalMembers += int64(vx.dec.count())
		}
	}
	return gs
}

// GroupElementRatios returns, for each digit position j, the average over
// vertices of |G_j|/d — Figure 9's y-axis. Vertices with zero degree are
// skipped.
func (s *Sampler) GroupElementRatios() []float64 {
	var sums []float64
	var vertices int64
	for u := range s.vx {
		d := s.adjs.Degree(graph.VertexID(u))
		if d == 0 {
			continue
		}
		vertices++
		vx := &s.vx[u]
		for i := range vx.groups {
			g := &vx.groups[i]
			j, _ := decodeGID(g.gid, s.cfg.RadixBits)
			for len(sums) <= j {
				sums = append(sums, 0)
			}
			sums[j] += float64(g.count) / float64(d)
		}
	}
	if vertices == 0 {
		return nil
	}
	out := make([]float64, len(sums))
	for j := range sums {
		out[j] = sums[j] / float64(vertices)
	}
	return out
}

// KindSavings compares, for the groups currently held in one
// representation, their actual storage (GA) against what the same groups
// would cost under the all-regular baseline (BS): group header, inverted
// index header, 4·count member list and 4·degree inverted index. This is
// the per-panel quantity of Figure 11(b)–(d).
type KindSavings struct {
	BS, GA int64
}

// AdaptiveSavings returns per-kind BS-vs-GA storage for the current state.
func (s *Sampler) AdaptiveSavings() [NumKinds]KindSavings {
	var out [NumKinds]KindSavings
	for u := range s.vx {
		d := int64(s.adjs.Degree(graph.VertexID(u)))
		vx := &s.vx[u]
		for i := range vx.groups {
			g := &vx.groups[i]
			out[g.kind].BS += groupStructSize + groupIndexSize + 4*int64(g.count) + 4*d
			out[g.kind].GA += groupStructSize + g.listBytes() + g.indexBytes()
		}
	}
	return out
}

// FootprintBreakdown splits Footprint by structure — the per-structure
// rows Figure 11 reports. The parts add up to Total, and Total is exactly
// what Footprint returns.
type FootprintBreakdown struct {
	// Adjacency is the dynamic adjacency store (columns and edge index).
	Adjacency int64
	// VertexHdr is the vertex records themselves.
	VertexHdr int64
	// Headers is the group headers, by the kind of the group.
	Headers [NumKinds]int64
	// Members is the sparse and regular groups' member lists.
	Members int64
	// Indices is the sparse and regular groups' inverted indices,
	// including the index headers.
	Indices int64
	// Kind attributes headers, member lists and indices to the kind of
	// the group holding them; it sums to Σ Headers + Members + Indices.
	Kind [NumKinds]int64
	// Slack is the unused capacity of the per-vertex group slices.
	Slack int64
	// Alias is the inter-group alias buckets.
	Alias int64
	// Decimal is the float-mode decimal groups.
	Decimal int64
	// Total is the sum of all of the above but Kind.
	Total int64
}

// CollectFootprint computes the Figure 11 memory breakdown in one pass.
func (s *Sampler) CollectFootprint() FootprintBreakdown {
	var fb FootprintBreakdown
	fb.Adjacency = s.adjs.Footprint()
	fb.VertexHdr = int64(len(s.vx)) * vertexStructSize
	for u := range s.vx {
		vx := &s.vx[u]
		for i := range vx.groups {
			g := &vx.groups[i]
			lb, ib := g.listBytes(), g.indexBytes()
			fb.Headers[g.kind] += groupStructSize
			fb.Members += lb
			fb.Indices += ib
			fb.Kind[g.kind] += groupStructSize + lb + ib
		}
		fb.Slack += int64(cap(vx.groups)-len(vx.groups)) * groupStructSize
		fb.Alias += int64(cap(vx.buckets)) * bucketSize
		if vx.dec != nil {
			fb.Decimal += decGroupSize + vx.dec.footprint()
		}
	}
	fb.Total = fb.Adjacency + fb.VertexHdr + fb.Members + fb.Indices +
		fb.Slack + fb.Alias + fb.Decimal
	for _, b := range fb.Headers {
		fb.Total += b
	}
	return fb
}
