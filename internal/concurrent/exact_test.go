package concurrent_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// buildMixedBatches generates batches of mixed updates over numVertices
// sources with few destinations each, so a batch holds several runs per
// stripe, duplicate edges and re-inserted pairs; deletions pick a pair
// inserted earlier (possibly already deleted) or a random pair, so many
// miss.
func buildMixedBatches(nBatches, size, numVertices int, floatMode bool, seed uint64) [][]graph.Update {
	r := xrand.New(seed)
	var inserted []pairKey
	batches := make([][]graph.Update, nBatches)
	for b := range batches {
		for range size {
			p := pairKey{graph.VertexID(r.Intn(numVertices)), graph.VertexID(r.Intn(24))}
			switch roll := r.Float64(); {
			case roll < 0.2 && len(inserted) > 0:
				p = inserted[r.Intn(len(inserted))]
				fallthrough
			case roll < 0.3:
				batches[b] = append(batches[b], graph.Update{Op: graph.OpDelete, Src: p.src, Dst: p.dst})
			default:
				up := graph.Update{Op: graph.OpInsert, Src: p.src, Dst: p.dst, Bias: uint64(1 + r.Intn(1000))}
				if floatMode {
					up.FBias = r.Float64() * 0.999
				}
				inserted = append(inserted, p)
				batches[b] = append(batches[b], up)
			}
		}
	}
	return batches
}

// TestApplyBatchExactlyMatchesCore is an exact differential of the
// stripe-major batch apply: multi-stripe mixed batches applied to a
// 16-stripe concurrent.Engine (1, 2 and 4 workers; float weights at 4)
// and to a serial core.Sampler must return equal BatchResults and leave
// bit-identical rows (AppendRowUpdates, adjacency order and weights) that
// answer a fixed-seed stream of draws identically, vertex by vertex. The
// vertex space starts at half the sources, so the first batch also grows
// it.
func TestApplyBatchExactlyMatchesCore(t *testing.T) {
	const (
		vertices = 2000
		draws    = 8
	)
	for _, floatMode := range []bool{false, true} {
		ccfg := core.DefaultConfig()
		if floatMode {
			ccfg.FloatBias = true
			ccfg.Lambda = 1024
		}
		batches := buildMixedBatches(4, 5000, vertices, floatMode, 0xE7AC7)
		workerCounts := []int{1, 2, 4}
		if floatMode {
			workerCounts = []int{4} // float rows cost ~2× to build; the fan-out is mode-blind
		}
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("float=%v/workers=%d", floatMode, workers), func(t *testing.T) {
				e := newEngine(t, vertices/2, ccfg, concurrent.Config{Stripes: 16, Workers: workers})
				scfg := ccfg
				scfg.Workers = 1
				seq, err := core.New(vertices/2, scfg)
				if err != nil {
					t.Fatal(err)
				}
				for b, batch := range batches {
					got, err := e.ApplyBatch(slices.Clone(batch))
					if err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					want, err := seq.ApplyBatch(slices.Clone(batch))
					if err != nil {
						t.Fatalf("batch %d serial: %v", b, err)
					}
					if got != want {
						t.Fatalf("batch %d: result %+v, serial core %+v", b, got, want)
					}
					if want.NotFound == 0 || want.Deleted == 0 {
						t.Fatalf("batch %d: %+v exercises no deletes of missing edges", b, want)
					}
					e.Quiesce(func(s *core.Sampler) {
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("batch %d: invariants: %v", b, err)
						}
						if s.NumVertices() != seq.NumVertices() {
							t.Fatalf("batch %d: %d vertices, serial core %d", b, s.NumVertices(), seq.NumVertices())
						}
						var rowE, rowS []graph.Update
						for u := graph.VertexID(0); int(u) < s.NumVertices(); u++ {
							rowE, rowS = s.AppendRowUpdates(u, rowE[:0]), seq.AppendRowUpdates(u, rowS[:0])
							if !slices.Equal(rowE, rowS) {
								t.Fatalf("batch %d: row %d\n got %v\nwant %v", b, u, rowE, rowS)
							}
						}
					})
					for u := graph.VertexID(0); int(u) < vertices; u++ {
						re, rs := xrand.New(uint64(u)), xrand.New(uint64(u))
						for i := range draws {
							ve, oke := e.Sample(u, re)
							vs, oks := seq.Sample(u, rs)
							if ve != vs || oke != oks {
								t.Fatalf("batch %d: vertex %d draw %d: %d,%v; serial core %d,%v", b, u, i, ve, oke, vs, oks)
							}
						}
					}
				}
			})
		}
	}
}
