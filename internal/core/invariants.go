package core

import (
	"fmt"
	"math"

	"github.com/bingo-rw/bingo/internal/bitutil"
	"github.com/bingo-rw/bingo/internal/graph"
)

// CheckInvariants verifies the sampler's structural invariants for every
// vertex and returns the first violation. It is exported for the test
// suite and for failure-injection debugging; it runs in O(V + E·K) and is
// not meant for production hot paths.
//
// Checked invariants:
//
//  1. every group's membership equals the set of neighbor indices whose
//     bias has the group's digit (Equations 3/4);
//  2. regular inverted indices are exact inverses of member lists and are
//     sized to the vertex degree;
//  3. sparse hash indices are exact inverses of member lists;
//  4. group kinds are consistent with the adaptive policy (within the
//     streaming hysteresis bands) or all-regular in baseline mode;
//  5. the inter-group alias table has one bucket per group in group order
//     (plus a last one for a decimal group with mass) and its total equals
//     the vertex's total (scaled) bias mass;
//  6. in float mode, decimal-group membership matches non-zero remainders
//     and the cached sum matches the rem column.
func (s *Sampler) CheckInvariants() error {
	for u := range s.vx {
		if err := s.checkVertex(graph.VertexID(u)); err != nil {
			return fmt.Errorf("vertex %d: %w", u, err)
		}
	}
	return nil
}

func (s *Sampler) checkVertex(u graph.VertexID) error {
	vx := &s.vx[u]
	b := s.cfg.RadixBits
	biasRow := s.adjs.BiasRow(u)
	d := len(biasRow)

	// Recompute expected per-group membership.
	want := map[int16][]int32{}
	for idx := int32(0); idx < int32(d); idx++ {
		w := biasRow[idx]
		n := bitutil.NumDigits(w, b)
		for j := 0; j < n; j++ {
			if v := bitutil.Digit(w, j, b); v != 0 {
				gid := gidOf(j, v, b)
				want[gid] = append(want[gid], idx)
			}
		}
	}
	if len(want) != len(vx.groups) {
		return fmt.Errorf("group count %d, want %d", len(vx.groups), len(want))
	}

	var lastGID int16 = -1
	totalMass := 0.0
	for i := range vx.groups {
		g := &vx.groups[i]
		if g.gid <= lastGID {
			return fmt.Errorf("groups not sorted: gid %d after %d", g.gid, lastGID)
		}
		lastGID = g.gid
		members, ok := want[g.gid]
		if !ok {
			return fmt.Errorf("group %d should not exist", g.gid)
		}
		if g.count != int32(len(members)) {
			return fmt.Errorf("group %d count %d, want %d", g.gid, g.count, len(members))
		}
		if g.count == 0 {
			return fmt.Errorf("group %d empty but present", g.gid)
		}
		totalMass += g.weight(b)

		// Kind consistency.
		if !s.cfg.Adaptive {
			if g.kind != KindRegular {
				return fmt.Errorf("group %d kind %v in baseline mode", g.gid, g.kind)
			}
		} else if g.kind == KindEmpty {
			return fmt.Errorf("group %d has empty kind with count %d", g.gid, g.count)
		}

		// Membership by representation.
		got := g.members(nil, biasRow, b)
		if len(got) != len(members) {
			return fmt.Errorf("group %d members %d, want %d", g.gid, len(got), len(members))
		}
		seen := map[int32]bool{}
		for _, m := range got {
			if m < 0 || int(m) >= d {
				return fmt.Errorf("group %d member %d out of range", g.gid, m)
			}
			if seen[m] {
				return fmt.Errorf("group %d duplicate member %d", g.gid, m)
			}
			seen[m] = true
			if !g.memberOf(biasRow[m], b) {
				return fmt.Errorf("group %d member %d bias %d lacks digit", g.gid, m, biasRow[m])
			}
		}
		switch g.kind {
		case KindRegular:
			if g.ix == nil || len(g.ix.inv) != d {
				return fmt.Errorf("group %d regular inverted index missing or not degree-sized", g.gid)
			}
			n := int32(0)
			for idx, pos := range g.ix.inv {
				if pos < 0 {
					continue
				}
				n++
				if pos >= g.count || g.list[pos] != int32(idx) {
					return fmt.Errorf("group %d inv[%d]=%d inconsistent", g.gid, idx, pos)
				}
			}
			if n != g.count {
				return fmt.Errorf("group %d inv population %d, want %d", g.gid, n, g.count)
			}
		case KindSparse:
			if g.ix == nil || g.ix.sinv.Len() != int(g.count) {
				return fmt.Errorf("group %d sparse hash index missing or not %d entries", g.gid, g.count)
			}
			for pos, idx := range g.list {
				if g.ix.sinv.FindAny(uint32(idx)) != int32(pos) {
					return fmt.Errorf("group %d sinv[%d] != %d", g.gid, idx, pos)
				}
			}
		case KindOne:
			if g.count != 1 {
				return fmt.Errorf("group %d one-element with count %d", g.gid, g.count)
			}
		}
		if (g.kind == KindDense || g.kind == KindOne) && (g.ix != nil || g.list != nil) {
			return fmt.Errorf("group %d kind %v holds list or index storage", g.gid, g.kind)
		}
	}

	// Decimal group.
	hasDec := false
	if s.cfg.FloatBias && d > 0 {
		if vx.dec == nil {
			return fmt.Errorf("decimal group missing at degree %d", d)
		}
		remRow := s.adjs.RemRow(u)
		wantSum := 0.0
		wantMembers := 0
		for idx := int32(0); idx < int32(d); idx++ {
			if remRow[idx] != 0 {
				wantMembers++
				wantSum += float64(remRow[idx])
				if vx.dec.inv[idx] < 0 {
					return fmt.Errorf("decimal member %d missing", idx)
				}
			} else if len(vx.dec.inv) > int(idx) && vx.dec.inv[idx] >= 0 {
				return fmt.Errorf("decimal non-member %d present", idx)
			}
		}
		if int(vx.dec.count()) != wantMembers {
			return fmt.Errorf("decimal count %d, want %d", vx.dec.count(), wantMembers)
		}
		if math.Abs(vx.dec.sum-wantSum) > 1e-3+1e-6*wantSum {
			return fmt.Errorf("decimal sum %v, want %v", vx.dec.sum, wantSum)
		}
		for pos, idx := range vx.dec.list {
			if vx.dec.inv[idx] != int32(pos) {
				return fmt.Errorf("decimal inv[%d] != %d", idx, pos)
			}
		}
		totalMass += vx.dec.sum
		hasDec = vx.dec.count() > 0 && vx.dec.sum > 0
	} else if vx.dec != nil && vx.dec.count() > 0 {
		return fmt.Errorf("decimal group holds %d members at degree %d", vx.dec.count(), d)
	}

	// Inter-group alias table.
	if vx.dirty {
		return fmt.Errorf("dirty outside batch")
	}
	if totalMass == 0 {
		if len(vx.buckets) != 0 {
			return fmt.Errorf("alias non-empty with zero mass")
		}
		return nil
	}
	if math.Abs(vx.total-totalMass) > 1e-6*totalMass+1e-9 {
		return fmt.Errorf("alias total %v, want %v", vx.total, totalMass)
	}
	// Bucket i is group i; the decimal group, when it has mass, is last.
	nb := len(vx.groups)
	if hasDec {
		nb++
	}
	if len(vx.buckets) != nb {
		return fmt.Errorf("%d alias buckets for %d groups (decimal %v)", len(vx.buckets), len(vx.groups), hasDec)
	}
	for i, bk := range vx.buckets {
		if bk.prob < 0 || bk.prob > 1 || bk.alias < 0 || int(bk.alias) >= nb {
			return fmt.Errorf("bucket %d = %+v out of range", i, bk)
		}
	}
	return nil
}

// VertexProbabilities returns the exact transition distribution the sampler
// encodes at u, as a map from adjacency slot to probability. Tests compare
// this against Equation 2 and against empirical frequencies.
func (s *Sampler) VertexProbabilities(u graph.VertexID) map[int32]float64 {
	vx := &s.vx[u]
	total := vx.total
	out := map[int32]float64{}
	if total == 0 {
		return out
	}
	b := s.cfg.RadixBits
	biasRow := s.adjs.BiasRow(u)
	for i := range vx.groups {
		g := &vx.groups[i]
		j, v := decodeGID(g.gid, b)
		sub := float64(v) * pow2(b*j)
		for _, m := range g.members(nil, biasRow, b) {
			out[m] += sub / total
		}
	}
	if vx.dec != nil {
		remRow := s.adjs.RemRow(u)
		for _, m := range vx.dec.list {
			out[m] += float64(remRow[m]) / total
		}
	}
	return out
}
