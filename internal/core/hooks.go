package core

import (
	"fmt"

	"github.com/bingo-rw/bingo/internal/graph"
)

// This file exports the narrow hooks internal/concurrent needs to layer
// striped-lock concurrency control on top of the sampler without widening
// the rest of the core API. The contract is the one ApplyBatch already
// relies on internally: all mutable state of an update on vertex u is
// confined to u's row (adjacency columns, groups, inter-group alias), and
// the only cross-vertex state — the live-edge counter, the conversion
// counters, and the phase timers — is maintained atomically. An external
// orchestrator that (a) serializes all operations touching the same source
// vertex and (b) excludes every operation while the vertex-ID space grows
// therefore gets linearizable per-vertex semantics.

// Scratch is reusable per-worker staging state for ApplyVertexUpdates; it
// corresponds to one batch worker's scratch in ApplyBatch. A Scratch must
// not be used by two goroutines at once.
type Scratch struct {
	sc *batchScratch
}

// NewScratch allocates an empty Scratch.
func NewScratch() *Scratch { return &Scratch{sc: newBatchScratch()} }

// EnsureVertexSpace grows the vertex-ID space to hold at least n vertices.
// It mutates the sampler's top-level slices and therefore must not run
// concurrently with any other operation (the concurrent wrapper performs it
// under a full stop-the-world acquisition).
func (s *Sampler) EnsureVertexSpace(n int) {
	if n > 0 {
		s.ensureVertex(graph.VertexID(n - 1))
	}
}

// ValidateUpdates performs ApplyBatch's pre-mutation validation pass —
// zero-bias and float-weight checks — without mutating anything, and
// returns the largest vertex ID the batch references. It reads only
// immutable sampler state (config, λ) and is safe to call without locks.
func (s *Sampler) ValidateUpdates(ups []graph.Update) (maxV graph.VertexID, err error) {
	for i := range ups {
		up := &ups[i]
		if up.Src > maxV {
			maxV = up.Src
		}
		if up.Dst > maxV {
			maxV = up.Dst
		}
		if up.Op == graph.OpInsert {
			if s.cfg.FloatBias {
				w := float64(up.Bias) + up.FBias
				if w <= 0 {
					return maxV, fmt.Errorf("%w: batch insert (%d,%d)", ErrZeroBias, up.Src, up.Dst)
				}
				if err := checkFloatWeight(w, s.cfg.Lambda); err != nil {
					return maxV, fmt.Errorf("batch insert (%d,%d): %w", up.Src, up.Dst, err)
				}
				// λ-underflow leaves no integer digits and a remainder that
				// rounds to zero in float32 — the edge would carry no mass.
				if ib, rem := splitFloatBias(w, s.cfg.Lambda); ib == 0 && rem == 0 {
					return maxV, fmt.Errorf("%w: batch insert (%d,%d) weight %v underflows λ=%v", ErrZeroBias, up.Src, up.Dst, w, s.cfg.Lambda)
				}
			} else if up.Bias == 0 {
				return maxV, fmt.Errorf("%w: batch insert (%d,%d)", ErrZeroBias, up.Src, up.Dst)
			}
		}
	}
	return maxV, nil
}

// AppendRowUpdates appends insert updates reconstructing u's current row
// to buf, in adjacency order: feeding them to an engine that holds no
// edges of u rebuilds exactly the row (same multiset, same order, same
// weights — float-mode weights are exported in unscaled user units like
// Snapshot's, so λ scaling round-trips). It reads the same structures
// Sample reads; the caller must exclude concurrent mutation of u's row
// (the concurrent wrapper calls it quiescent). This is the per-vertex
// half of block snapshots and extraction: replica priming ships a vertex
// range as the updates this hook emits.
func (s *Sampler) AppendRowUpdates(u graph.VertexID, buf []graph.Update) []graph.Update {
	if int(u) >= len(s.vx) {
		return buf
	}
	d := s.adjs.Degree(u)
	for i := int32(0); i < int32(d); i++ {
		up := graph.Update{Op: graph.OpInsert, Src: u, Dst: s.adjs.Dst(u, i)}
		if s.cfg.FloatBias {
			w := (float64(s.adjs.Bias(u, i)) + float64(s.adjs.Rem(u, i))) / s.cfg.Lambda
			up.Bias = uint64(w)
			up.FBias = w - float64(up.Bias)
		} else {
			up.Bias = s.adjs.Bias(u, i)
		}
		buf = append(buf, up)
	}
	return buf
}

// ApplyVertexUpdates applies one vertex's slice of a batch — every op must
// have Src == u — through the §5.2 per-vertex workflow (insert → delete →
// rebuild, one inter-group alias rebuild). The ops must already have passed
// ValidateUpdates and the vertex space must already cover u and every
// destination. The caller is responsible for serializing all access to u's
// row; distinct vertices may be processed concurrently.
func (s *Sampler) ApplyVertexUpdates(u graph.VertexID, ops []graph.Update, sc *Scratch) BatchResult {
	return s.applyVertexBatch(u, ops, sc.sc)
}

// FlushScratch folds the conversion statistics a Scratch accumulated into
// the sampler's Table 4 counters and resets them. Safe to call from
// multiple workers concurrently (the merge is atomic).
func (s *Sampler) FlushScratch(sc *Scratch) {
	s.cc.merge(&sc.sc.cc)
	sc.sc.cc = convCounters{}
}
