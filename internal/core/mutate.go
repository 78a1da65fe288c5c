package core

import (
	"fmt"

	"github.com/bingo-rw/bingo/internal/bitutil"
	"github.com/bingo-rw/bingo/internal/graph"
)

// This file implements the "other graph updates" of §4.2: "deleting a
// vertex, and updating the edge bias, can be either implemented with
// insertion and/or deletion operations or supported straightforwardly".
// Bias updates are supported straightforwardly — the edge keeps its
// adjacency slot and only its group memberships change, still O(K) — and
// vertex deletion drains the vertex's own row in one pass.

// UpdateBias rewrites the bias of one live instance of edge u→dst.
// Only the groups on which the old and new biases differ are touched.
func (s *Sampler) UpdateBias(u, dst graph.VertexID, newBias uint64) error {
	if s.cfg.FloatBias {
		return s.UpdateBiasFloat(u, dst, float64(newBias))
	}
	if newBias == 0 {
		return fmt.Errorf("%w: update (%d,%d)", ErrZeroBias, u, dst)
	}
	if int(u) >= len(s.vx) {
		return fmt.Errorf("%w: vertex %d", ErrVertexRange, u)
	}
	idx := s.adjs.Find(u, dst)
	if idx < 0 {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeNotFound, u, dst)
	}
	s.rewriteBias(u, idx, newBias, 0)
	return nil
}

// UpdateBiasFloat is UpdateBias for float-mode weights.
func (s *Sampler) UpdateBiasFloat(u, dst graph.VertexID, w float64) error {
	if !s.cfg.FloatBias {
		return fmt.Errorf("core: UpdateBiasFloat on integer-bias sampler")
	}
	if w <= 0 {
		return fmt.Errorf("%w: update (%d,%d) weight %v", ErrZeroBias, u, dst, w)
	}
	if err := checkFloatWeight(w, s.cfg.Lambda); err != nil {
		return err
	}
	if int(u) >= len(s.vx) {
		return fmt.Errorf("%w: vertex %d", ErrVertexRange, u)
	}
	idx := s.adjs.Find(u, dst)
	if idx < 0 {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeNotFound, u, dst)
	}
	ib, rem := splitFloatBias(w, s.cfg.Lambda)
	s.rewriteBias(u, idx, ib, rem)
	return nil
}

// rewriteBias swaps the digit-group memberships of slot idx from its old
// bias to newBias, updating only the differing groups, then rebuilds the
// inter-group alias once.
func (s *Sampler) rewriteBias(u graph.VertexID, idx int32, newBias uint64, newRem float32) {
	vx := &s.vx[u]
	var cc convCounters
	b := s.cfg.RadixBits
	oldBias := s.adjs.Bias(u, idx)
	oldRem := s.adjs.Rem(u, idx)
	d := s.adjs.Degree(u)
	biasRow := s.adjs.BiasRow(u)

	maxDigits := bitutil.NumDigits(oldBias, b)
	if n := bitutil.NumDigits(newBias, b); n > maxDigits {
		maxDigits = n
	}
	// Remove memberships the new bias loses. The adjacency bias must
	// still be the old value while dense groups are consulted, so
	// removals happen before the column write.
	for j := 0; j < maxDigits; j++ {
		ov := bitutil.Digit(oldBias, j, b)
		nv := bitutil.Digit(newBias, j, b)
		if ov == nv || ov == 0 {
			continue
		}
		i, ok := vx.findGroup(gidOf(j, ov, b))
		if !ok {
			panic(fmt.Sprintf("core: bias rewrite: missing group (%d,%d)", j, ov))
		}
		cc.touch(vx.groups[i].kind)
		vx.groups[i].remove(idx)
	}
	s.adjs.SetBias(u, idx, newBias, newRem)
	// Add memberships the new bias gains.
	for j := 0; j < maxDigits; j++ {
		ov := bitutil.Digit(oldBias, j, b)
		nv := bitutil.Digit(newBias, j, b)
		if ov == nv || nv == 0 {
			continue
		}
		g := vx.ensureGroup(gidOf(j, nv, b))
		cc.touch(g.kind)
		if g.kind == KindOne {
			target := KindRegular
			if s.cfg.Adaptive {
				target = classify(g.count+1, d, s.cfg.AlphaPct, s.cfg.BetaPct)
				if target == KindOne {
					target = KindSparse
				}
			}
			s.convert(g, target, d, biasRow, &cc)
		}
		g.growInv(d)
		g.add(idx)
	}
	if s.cfg.FloatBias {
		vx.dec.growInv(d) // the rewritten edge is live, so dec exists
		if oldRem != 0 {
			vx.dec.remove(idx, oldRem)
		}
		if newRem != 0 {
			vx.dec.add(idx, newRem)
		}
	}
	for i := range vx.groups {
		s.maybeConvertStreaming(&vx.groups[i], d, s.adjs.BiasRow(u), &cc)
	}
	s.rebuildInter(u)
	s.cc.merge(&cc)
}

// DeleteVertex removes every out-edge of u in one pass (O(d + K)) and
// leaves the vertex present with degree zero. In-edges pointing at u are
// the callers' to remove (the engine keeps no reverse adjacency, like the
// 1-D-partitioned original); DeleteVertexEverywhere performs the full
// O(V + E) sweep when the caller has no in-edge record.
func (s *Sampler) DeleteVertex(u graph.VertexID) error {
	if int(u) >= len(s.vx) {
		return fmt.Errorf("%w: vertex %d", ErrVertexRange, u)
	}
	vx := &s.vx[u]
	d := s.adjs.Degree(u)
	for i := int32(0); i < int32(d); i++ {
		s.adjs.Unindex(u, i)
	}
	s.adjs.Truncate(u, 0)
	vx.groups = nil
	vx.dec = nil
	s.rebuildInter(u)
	return nil
}

// DeleteVertexEverywhere removes u's out-edges and scans every other
// vertex for in-edges u←v, deleting them too. O(V + E); intended for
// administrative removal, not hot paths.
func (s *Sampler) DeleteVertexEverywhere(u graph.VertexID) error {
	if err := s.DeleteVertex(u); err != nil {
		return err
	}
	for v := range s.vx {
		vid := graph.VertexID(v)
		if vid == u {
			continue
		}
		for s.adjs.Find(vid, u) >= 0 {
			if err := s.Delete(vid, u); err != nil {
				return err
			}
		}
	}
	return nil
}
