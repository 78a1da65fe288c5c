package walk

import (
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// MetaPath implements metapath-guided second-order walks (paper §7.3 lists
// Metapath with node2vec among the second-order algorithms handled by the
// KnightKing rejection approach the engine adopts): the walker follows a
// cyclic label pattern over vertex types, e.g. author→paper→venue→paper→
// author in a bibliographic graph.
//
// At hop i the walker at a pattern[i mod n]-labeled vertex must move to a
// neighbor labeled pattern[(i+1) mod n]. The transition is sampled by
// rejection against the static biased distribution: draw a candidate,
// accept iff its label matches (a binary acceptance factor). After
// metaPathRejectionCap consecutive misses the remaining matching mass is
// treated as negligible and the walk ends — the bounded-rejection analogue
// of a dead end.
const metaPathRejectionCap = 64

// Labeling assigns each vertex a type label.
type Labeling func(graph.VertexID) uint8

// MetaPath runs metapath walks from every configured start whose label
// matches pattern[0]; walkers on mismatched starts end immediately with
// zero steps. pattern must be non-empty.
func MetaPath(e Engine, labels Labeling, pattern []uint8, cfg Config) Result {
	if len(pattern) == 0 {
		panic("walk: empty metapath pattern")
	}
	cfg = cfg.withDefaults()
	return runParallel(e, cfg, func(start graph.VertexID, r *xrand.RNG, visits []int64) int64 {
		if labels(start) != pattern[0] {
			return 0
		}
		cur := start
		bump(visits, cur)
		var steps int64
		for hop := 0; hop < cfg.Length; hop++ {
			want := pattern[(hop+1)%len(pattern)]
			var next graph.VertexID
			found := false
			for round := 0; round < metaPathRejectionCap; round++ {
				v, ok := e.Sample(cur, r)
				if !ok {
					return steps
				}
				if labels(v) == want {
					next = v
					found = true
					break
				}
			}
			if !found {
				return steps
			}
			steps++
			cur = next
			bump(visits, cur)
		}
		return steps
	})
}
