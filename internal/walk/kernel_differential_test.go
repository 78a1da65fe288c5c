package walk

// The kernel's own differential gates, sitting below the service-level
// harnesses (sharded, hub-churn, rebalance, failover):
//
//  1. Lockstep: with hub caches off, every draw goes through the engine
//     lock and consumes its slot's stream exactly as a per-walker locked
//     sample would, so sparse, dense, and auto stepping must produce
//     *identical* walks — edge for edge, across interleaved update
//     batches. This is the "sparse draw-for-draw identical" contract.
//
//  2. Distribution: with hub caches on, dense runs draw from
//     epoch-validated views outside the lock, consuming streams
//     differently — the contract weakens to distributional exactness,
//     and a ≥120k-draw chi-square against the view's own exact
//     probabilities must not tell the difference.
//
//  3. Churn: the same chi-square gate while a writer rewrites the hubs
//     mid-batch, invalidating cached views between (and during) rounds.
//     Run with -race; the stale-view handling is the thing under test.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const kdSamples = 120000 // ≥ 1.2e5 chi-square draws

// kdAdvance moves the frontier to its drawn next hops, re-parking
// dead-ended slots on their home hub (deterministic, mode-independent).
func kdAdvance(f *frontier) {
	for i := 0; i < f.n; i++ {
		if f.ok[i] {
			f.cur[i] = f.next[i]
		} else {
			f.cur[i] = graph.VertexID(i % benchHubs)
		}
	}
}

// TestKernelModesLockstep steps sparse, dense, and auto kernels (caches
// off) over one shared engine from identical frontier states, with update
// batches landing between rounds, and requires bit-identical walks. It
// runs over concurrent.Engine, whose dense rounds batch per vertex, and
// over a bare core.Sampler, whose dense and auto rounds take the staged
// frontier draw.
func TestKernelModesLockstep(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    interface {
			Engine
			ApplyBatch([]graph.Update) (core.BatchResult, error)
		}
	}{
		{"concurrent", benchHubEngine(t, 2048)},
		{"core", benchHubSampler(t, 2048)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			modes := []KernelMode{KernelSparse, KernelDense, KernelAuto}
			kernels := make([]*stepKernel, len(modes))
			fronts := make([]*frontier, len(modes))
			for m, mode := range modes {
				kernels[m] = newStepKernel(e, mode, fabric.CacheSpec{Off: true})
				f := getFrontier(kernelBatch)
				defer putFrontier(f)
				benchFrontier(f) // same seeds in every frontier
				fronts[m] = f
			}

			upd := xrand.New(0x10c5)
			for round := 0; round < 200; round++ {
				if round%20 == 10 {
					// Rewrite some hub rows mid-walk: every mode reads the
					// same post-batch state, so lockstep must survive
					// mutation.
					batch := make([]graph.Update, 0, 32)
					for i := 0; i < 32; i++ {
						batch = append(batch, graph.Update{
							Op:   graph.OpInsert,
							Src:  graph.VertexID(upd.Intn(benchHubs)),
							Dst:  graph.VertexID(2048 + upd.Intn(64)),
							Bias: uint64(1 + upd.Intn(1000)),
						})
					}
					if _, err := e.ApplyBatch(batch); err != nil {
						t.Fatalf("round %d: ApplyBatch: %v", round, err)
					}
				}
				for m := range kernels {
					kernels[m].stepBatch(fronts[m])
				}
				base := fronts[0]
				for m := 1; m < len(kernels); m++ {
					f := fronts[m]
					for i := 0; i < kernelBatch; i++ {
						// next is unspecified when ok is false (dead end).
						if f.ok[i] != base.ok[i] || (f.ok[i] && f.next[i] != base.next[i]) {
							t.Fatalf("round %d slot %d: %s drew (%d,%v), sparse drew (%d,%v) from %d",
								round, i, modes[m], f.next[i], f.ok[i], base.next[i], base.ok[i], base.cur[i])
						}
					}
				}
				for m := range fronts {
					kdAdvance(fronts[m])
				}
			}
		})
	}
}

// kdChiSquare draws kdSamples batched hops at u through k (every slot
// parked on u each round) and chi-squares the observed destinations
// against the engine's exact per-destination probabilities.
func kdChiSquare(t *testing.T, e interface {
	Engine
	ViewSampler
}, k *stepKernel, f *frontier, u graph.VertexID) {
	t.Helper()
	vw := e.ViewOf(u)
	probByDst := map[graph.VertexID]float64{}
	for slot, p := range vw.Probabilities() {
		probByDst[vw.Dsts[slot]] += p
	}
	index := map[graph.VertexID]int{}
	probs := make([]float64, 0, len(probByDst))
	for d, p := range probByDst {
		index[d] = len(probs)
		probs = append(probs, p)
	}
	observed := make([]int64, len(probs))
	for drawn := 0; drawn < kdSamples; {
		for i := 0; i < f.n; i++ {
			f.cur[i] = u
		}
		k.stepBatch(f)
		for i := 0; i < f.n; i++ {
			if !f.ok[i] {
				t.Fatalf("draw %d slot %d: no sample from hub %d", drawn, i, u)
			}
			j, live := index[f.next[i]]
			if !live {
				t.Fatalf("draw %d slot %d: sampled %d, not a live neighbor of %d", drawn, i, f.next[i], u)
			}
			observed[j]++
			drawn++
		}
	}
	stat, p, err := stats.ChiSquareGOF(observed, probs, 5)
	if err != nil {
		t.Fatalf("hub %d: chi-square: %v", u, err)
	}
	if p < 1e-4 {
		t.Errorf("hub %d: chi-square stat %.2f p=%.2e — dense view draws diverge from the exact distribution", u, stat, p)
	}
}

// TestKernelDenseViewChiSquare gates the dense-with-views path on a quiet
// graph: every draw at the hub is served by the cached view after the
// first round, and 120k draws must match the view's exact probabilities.
func TestKernelDenseViewChiSquare(t *testing.T) {
	e := benchHubEngine(t, 2048)
	k := newStepKernel(e, KernelDense, fabric.CacheSpec{})
	f := getFrontier(kernelBatch)
	defer putFrontier(f)
	benchFrontier(f)
	kdChiSquare(t, e, k, f, graph.VertexID(3))
	var hits, stale int64
	k.flushCacheStats(&hits, &stale)
	if hits == 0 {
		t.Error("no cache hits across 120k hub draws — the view path is not in play")
	}
}

// TestKernelDenseHubChurnMidBatch runs the dense kernel against a writer
// that keeps rewriting the hub rows, so cached views go stale between and
// during rounds (run with -race: concurrent extraction, validation, and
// invalidation is the thing under test). After the churn stops, the
// refreshed views must still pass the 120k-draw chi-square gate.
func TestKernelDenseHubChurnMidBatch(t *testing.T) {
	const verts = 2048
	e := benchHubEngine(t, verts)
	k := newStepKernel(e, KernelDense, fabric.CacheSpec{})
	f := getFrontier(kernelBatch)
	defer putFrontier(f)
	benchFrontier(f)

	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		r := xrand.New(0xc4012 ^ 0xbeef)
		for it := 0; ; it++ {
			select {
			case <-done:
				return
			default:
			}
			// Insert a fresh edge on every hub and delete the one
			// inserted 32 iterations ago: hub rows churn constantly but
			// never lose their original mass, and (src,dst) pairs are
			// unique at any instant, so replay order cannot matter.
			batch := make([]graph.Update, 0, 2*benchHubs)
			for h := 0; h < benchHubs; h++ {
				batch = append(batch, graph.Update{
					Op: graph.OpInsert, Src: graph.VertexID(h),
					Dst: graph.VertexID(verts + (it % 64)), Bias: uint64(1 + r.Intn(1000)),
				})
				if it >= 32 {
					batch = append(batch, graph.Update{
						Op: graph.OpDelete, Src: graph.VertexID(h),
						Dst: graph.VertexID(verts + ((it - 32) % 64)),
					})
				}
			}
			if _, err := e.ApplyBatch(batch); err != nil {
				t.Errorf("churn writer: %v", err)
				return
			}
			// Pace the churn so views live a few rounds between deaths —
			// an unthrottled writer invalidates every view every round
			// and the admission back-off (correctly) stops caching.
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Step through the churn: hub-parked rounds keep probing, validating,
	// and refilling views while the writer invalidates them. On a
	// single-core box the whole loop fits under the async-preemption
	// window, so yield each round to let the writer's timer fire —
	// otherwise it never runs mid-loop and nothing goes stale.
	for round := 0; round < 400; round++ {
		for i := 0; i < f.n; i++ {
			f.cur[i] = graph.VertexID(i % benchHubs)
		}
		k.stepBatch(f)
		runtime.Gosched()
	}
	close(done)
	writer.Wait()

	// The concurrent phase above is scheduler-timing-dependent (on a
	// single-core box the writer may run between every round or almost
	// never), so it only has to survive the race detector; the hit/stale
	// accounting is asserted deterministically here. A quiet stretch
	// clears the admission back-off the churn earned (worst skip window
	// is 1<<churnMaxStrikes extractions) and accumulates hits; one
	// synchronous batch then bumps every hub's version, so the next
	// round must find every cached view stale.
	var hits, stale int64
	k.flushCacheStats(&hits, &stale)
	for round := 0; round < 2<<churnMaxStrikes; round++ {
		for i := 0; i < f.n; i++ {
			f.cur[i] = graph.VertexID(i % benchHubs)
		}
		k.stepBatch(f)
	}
	hits, stale = 0, 0
	k.flushCacheStats(&hits, &stale)
	if hits == 0 {
		t.Error("quiet hub rounds exercised no view hits — the cache is not in play")
	}
	batch := make([]graph.Update, benchHubs)
	for h := 0; h < benchHubs; h++ {
		batch[h] = graph.Update{
			Op: graph.OpInsert, Src: graph.VertexID(h),
			Dst: graph.VertexID(verts + 64), Bias: 7,
		}
	}
	if _, err := e.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.n; i++ {
		f.cur[i] = graph.VertexID(i % benchHubs)
	}
	k.stepBatch(f)
	hits, stale = 0, 0
	k.flushCacheStats(&hits, &stale)
	if stale == 0 {
		t.Error("hub rewrite invalidated no cached views — epoch validation is not in play")
	}

	// Quiescent gate: the final writer batch bumped the stripe epochs, so
	// the first post-churn round drops every stale view and refills from
	// the settled graph; the distribution must be exact again.
	kdChiSquare(t, e, k, f, graph.VertexID(5))
}
