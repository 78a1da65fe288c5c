package main

import (
	"fmt"

	"github.com/bingo-rw/bingo"
	"github.com/bingo-rw/bingo/internal/stats"
)

// refGraph is the benchmark's own sequential replay of the inputs: a plain
// map from (src, dst) to weight, sharing no code with the engines it
// checks. The generator never repeats an edge, so a map and not a multiset
// is enough — and the replay verifies that instead of assuming it.
type refGraph struct {
	weight map[uint64]float64
	degree []int32
}

func edgeKey(src, dst bingo.VertexID) uint64 { return uint64(src)<<32 | uint64(dst) }

// replay applies the first events of the tape to the initial snapshot.
func replay(in *inputs, events int) (*refGraph, error) {
	ref := &refGraph{
		weight: make(map[uint64]float64, len(in.edgeList)+events/2),
		degree: make([]int32, in.vertices),
	}
	for _, e := range in.edgeList {
		if err := ref.insert(e.Src, e.Dst, e.Weight); err != nil {
			return nil, err
		}
	}
	for i, u := range in.tape[:events] {
		var err error
		if u.Op == bingo.OpInsert {
			err = ref.insert(u.Src, u.Dst, u.Weight)
		} else {
			err = ref.delete(u.Src, u.Dst)
		}
		if err != nil {
			return nil, fmt.Errorf("tape event %d: %w", i, err)
		}
	}
	return ref, nil
}

func (r *refGraph) insert(src, dst bingo.VertexID, w float64) error {
	k := edgeKey(src, dst)
	if _, dup := r.weight[k]; dup {
		return fmt.Errorf("edge %d→%d inserted twice", src, dst)
	}
	r.weight[k] = w
	r.degree[src]++
	return nil
}

func (r *refGraph) delete(src, dst bingo.VertexID) error {
	k := edgeKey(src, dst)
	if _, ok := r.weight[k]; !ok {
		return fmt.Errorf("edge %d→%d deleted while not live", src, dst)
	}
	delete(r.weight, k)
	r.degree[src]--
	return nil
}

func (r *refGraph) hasEdge(src, dst bingo.VertexID) bool {
	_, ok := r.weight[edgeKey(src, dst)]
	return ok
}

// checkPath verifies that every hop of a walk is an edge, and that a walk
// shorter than asked for stopped at a vertex with no way out.
func checkPath(path []bingo.VertexID, length int, hasEdge func(u, v bingo.VertexID) bool, degree func(bingo.VertexID) int) error {
	if len(path) == 0 || len(path) > length+1 {
		return fmt.Errorf("path of %d vertices for a %d-step walk", len(path), length)
	}
	for i := 1; i < len(path); i++ {
		if !hasEdge(path[i-1], path[i]) {
			return fmt.Errorf("hop %d→%d is not an edge", path[i-1], path[i])
		}
	}
	if last := path[len(path)-1]; len(path) < length+1 && degree(last) != 0 {
		return fmt.Errorf("walk stopped after %d of %d steps at vertex %d of degree %d", len(path)-1, length, last, degree(last))
	}
	return nil
}

// sameEdges verifies that the engine holds exactly the reference's edges:
// equal counts, equal out-degrees, and every reference edge present.
func sameEdges(ref *refGraph, eng *bingo.Engine) error {
	if got, want := eng.NumEdges(), int64(len(ref.weight)); got != want {
		return fmt.Errorf("engine holds %d edges, sequential replay %d", got, want)
	}
	for v, d := range ref.degree {
		if got := eng.Degree(bingo.VertexID(v)); v < eng.NumVertices() && got != int(d) {
			return fmt.Errorf("vertex %d has degree %d, sequential replay %d", v, got, d)
		}
	}
	for k := range ref.weight {
		if src, dst := bingo.VertexID(k>>32), bingo.VertexID(k); !eng.HasEdge(src, dst) {
			return fmt.Errorf("edge %d→%d of the sequential replay is missing", src, dst)
		}
	}
	return nil
}

// chiSquareAt draws from the engine at u and tests the draws against the
// reference's exact transition probabilities weight/Σweight (Theorem 4.1).
// The threshold is far into the tail: a correct sampler fails one run in a
// million, a biased one essentially always at this sample size.
func chiSquareAt(ref *refGraph, eng *bingo.Engine, u bingo.VertexID, draws int, seed uint64) error {
	index := map[bingo.VertexID]int{}
	var probs []float64
	var total float64
	for k, w := range ref.weight {
		if bingo.VertexID(k>>32) == u {
			index[bingo.VertexID(k)] = len(probs)
			probs = append(probs, w)
			total += w
		}
	}
	if len(probs) < 2 {
		return fmt.Errorf("top hub %d has %d out-edges left, too few to test", u, len(probs))
	}
	for i := range probs {
		probs[i] /= total
	}
	observed := make([]int64, len(probs))
	r := bingo.NewRand(seed)
	for i := 0; i < draws; i++ {
		v, ok := eng.Sample(u, r)
		if !ok {
			return fmt.Errorf("Sample(%d) found no edge", u)
		}
		j, known := index[v]
		if !known {
			return fmt.Errorf("Sample(%d) returned %d, not a neighbour in the sequential replay", u, v)
		}
		observed[j]++
	}
	stat, p, err := stats.ChiSquareGOF(observed, probs, 5)
	if err != nil {
		return err
	}
	if p < 1e-6 {
		return fmt.Errorf("chi-square at hub %d over %d draws: stat %.1f, p %.2g", u, draws, stat, p)
	}
	return nil
}
