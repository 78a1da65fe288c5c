// Package sampling implements the classical Monte Carlo sampling methods the
// paper builds on and compares against (§2.3): the alias method, inverse
// transform sampling (ITS), rejection sampling, and single-pass weighted
// reservoir sampling.
//
// These are the substrates of the whole repository: Bingo's inter-group
// stage uses the alias table; the KnightKing baseline uses per-vertex alias
// tables; the gSampler stand-in uses ITS; FlowWalker uses the weighted
// reservoir; and Table 1's complexity comparison microbenchmarks each of
// them directly.
package sampling

import (
	"github.com/bingo-rw/bingo/internal/xrand"
)

// AliasTable samples an index in [0, n) with probability proportional to
// the weight supplied at build time, in O(1) per sample. Construction is
// O(n) (Vose's algorithm). The zero value is an empty table; (re)build it
// with Build.
//
// Build reuses the table's internal storage, because Bingo rebuilds a small
// inter-group alias table after every streaming update (paper §4.2) and
// that path must not allocate.
type AliasTable struct {
	prob  []float64 // acceptance threshold of each bucket, scaled to [0,1]
	alias []int32   // fallback index of each bucket
	total float64   // sum of weights

	small, large []int32 // build-time scratch, kept to avoid reallocation
}

// Build (re)constructs the table from weights. Negative weights panic;
// all-zero or empty weights produce a table that reports Empty() == true.
func (t *AliasTable) Build(weights []float64) {
	n := len(weights)
	t.prob = grow(t.prob, n)
	t.alias = growInt32(t.alias, n)
	t.total, t.small, t.large = Vose(weights, t.prob, t.alias, t.small[:0], t.large[:0])
	if n == 0 || t.total == 0 {
		t.prob = t.prob[:0]
		t.alias = t.alias[:0]
	}
}

// Vose is the one alias construction in the repository (Vose's algorithm),
// shared by AliasTable and by the core sampler's inter-group buckets so
// both draw identically. It fills prob[i] (the stay probability of bucket
// i, in [0,1]) and alias[i] (its fallback index) for every weight and
// returns the weights' sum. prob and alias need len(weights) entries; prob
// may be weights itself, since each weight is read before its bucket is
// written. small and large are worklist scratch: they are appended to and
// returned emptied, so callers keep whatever capacity they grew. On an
// empty or zero-mass input prob and alias are left unwritten. Negative
// weights panic.
func Vose(weights, prob []float64, alias []int32, small, large []int32) (total float64, _, _ []int32) {
	for _, w := range weights {
		if w < 0 {
			panic("sampling: negative weight")
		}
		total += w
	}
	n := len(weights)
	if n == 0 || total == 0 {
		return total, small, large
	}

	// Scale each weight to mean 1 and split into small/large worklists.
	scale := float64(n) / total
	for i, w := range weights {
		prob[i] = w * scale
		alias[i] = int32(i)
		if prob[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		// Bucket s keeps probability prob[s] for itself; the remainder
		// of the bucket is donated by l.
		alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Numerical leftovers: everything remaining fills its own bucket.
	for _, i := range small {
		prob[i] = 1
	}
	for _, i := range large {
		prob[i] = 1
	}
	return total, small[:0], large[:0]
}

// NewAlias builds a fresh table from weights.
func NewAlias(weights []float64) *AliasTable {
	var t AliasTable
	t.Build(weights)
	return &t
}

// Empty reports whether the table has no sampleable mass.
func (t *AliasTable) Empty() bool { return len(t.prob) == 0 }

// N returns the number of buckets.
func (t *AliasTable) N() int { return len(t.prob) }

// Total returns the sum of weights the table was built from.
func (t *AliasTable) Total() float64 { return t.total }

// Sample draws an index with probability weight[i]/Total in O(1).
// It panics if the table is empty.
func (t *AliasTable) Sample(r *xrand.RNG) int {
	n := len(t.prob)
	if n == 0 {
		panic("sampling: Sample on empty alias table")
	}
	i := r.Intn(n)
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// Footprint returns the bytes held by the table (including scratch).
func (t *AliasTable) Footprint() int64 {
	return int64(cap(t.prob))*8 + int64(cap(t.alias))*4 +
		int64(cap(t.small))*4 + int64(cap(t.large))*4
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
