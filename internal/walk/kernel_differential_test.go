package walk

// The kernel's own differential gates, sitting below the service-level
// harnesses (sharded, hub-churn, multi-coordinator, failover):
//
//  1. Lockstep: with hub caches off, every draw goes through the engine
//     and consumes its slot's stream exactly as a per-walker locked
//     sample would, so the kernel must produce *identical* walks to the
//     per-slot reference (the same engine with its optional capabilities
//     hidden) — edge for edge, across interleaved update batches, on
//     every draw path the kernel picks.
//
//  2. Distribution: with hub caches on, batched runs draw from
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

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const kdSamples = 120000 // ≥ 1.2e5 chi-square draws

// kdAdvance moves the frontier to its drawn next hops, re-parking
// dead-ended slots on their home hub (deterministic, path-independent).
func kdAdvance(f *frontier) {
	for i := 0; i < f.n; i++ {
		if f.ok[i] {
			f.cur[i] = f.next[i]
		} else {
			f.cur[i] = graph.VertexID(i % benchHubs)
		}
	}
}

// countingBatch is concurrent.Engine with its per-slot and per-run draws
// counted, so a test can see which draw path a kernel round took.
type countingBatch struct {
	*concurrent.Engine
	slots, runs int
}

func (c *countingBatch) Sample(u graph.VertexID, r *xrand.RNG) (graph.VertexID, bool) {
	c.slots++
	return c.Engine.Sample(u, r)
}

func (c *countingBatch) SampleBatch(u graph.VertexID, rs []*xrand.RNG, dst []graph.VertexID) bool {
	c.runs++
	return c.Engine.SampleBatch(u, rs, dst)
}

// countingStaged is core.Sampler with its staged frontier draws counted.
type countingStaged struct {
	*core.Sampler
	staged int
}

func (c *countingStaged) SampleFrontier(cur []graph.VertexID, rs []*xrand.RNG, next []graph.VertexID, ok []bool) {
	c.staged++
	c.Sampler.SampleFrontier(cur, rs, next, ok)
}

// TestKernelLockstepPerSlot steps the kernel (caches off) and the
// per-slot reference over one shared engine from identical frontier
// states, with update batches landing between rounds, and requires
// bit-identical walks. The frontier shapes put every branch of
// stepBatchImpl in play, and each shape's first round asserts the branch
// it took: over concurrent.Engine a frontier below denseMinBatch and one
// of runs shorter than denseMinRun step slot by slot, a hub-parked one
// batches per vertex; over a bare core.Sampler every round is one staged
// frontier draw.
func TestKernelLockstepPerSlot(t *testing.T) {
	shapes := []struct {
		name string
		n    int
		at   func(i int) graph.VertexID
	}{
		// One run long enough to batch, in a frontier too small to group.
		{"below-min-batch", denseMinBatch - 1, func(int) graph.VertexID { return 0 }},
		{"short-runs", kernelBatch, func(i int) graph.VertexID { return graph.VertexID(benchHubs + i/(denseMinRun-1)) }},
		{"long-runs", kernelBatch, func(i int) graph.VertexID { return graph.VertexID(i % benchHubs) }},
	}
	conc := &countingBatch{Engine: benchHubEngine(t, 2048)}
	staged := &countingStaged{Sampler: benchHubSampler(t, 2048)}
	for _, tc := range []struct {
		name  string
		e     Engine
		apply func([]graph.Update) (core.BatchResult, error)
		// taken checks the draw path of a shape's first round from the
		// counters' movement over it.
		taken func(t *testing.T, shape string, n int)
	}{
		{"concurrent", conc, conc.ApplyBatch, func(t *testing.T, shape string, n int) {
			want := map[string][2]int{ // {per-slot draws, per-run draws}
				"below-min-batch": {n, 0},
				"short-runs":      {n, 0},
				"long-runs":       {0, benchHubs},
			}[shape]
			if got := [2]int{conc.slots, conc.runs}; got != want {
				t.Errorf("%s: first round drew %d per slot and %d per run, want %v", shape, got[0], got[1], want)
			}
		}},
		{"core", staged, staged.ApplyBatch, func(t *testing.T, shape string, n int) {
			if staged.staged != 1 {
				t.Errorf("%s: first round made %d staged draws, want 1", shape, staged.staged)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					k := newStepKernel(tc.e, fabric.CacheSpec{Off: true})
					ref := newStepKernel(struct{ Engine }{tc.e}, fabric.CacheSpec{Off: true})
					kf, rf := getFrontier(sh.n), getFrontier(sh.n)
					defer putFrontier(kf)
					defer putFrontier(rf)
					for _, f := range []*frontier{kf, rf} {
						for i := 0; i < sh.n; i++ {
							f.cur[i] = sh.at(i)
							f.rng[i] = xrand.New(uint64(i) + 1) // same seeds in both
						}
						f.n = sh.n
					}

					upd := xrand.New(0x10c5)
					for round := 0; round < 60; round++ {
						if round%20 == 10 {
							// Rewrite some hub rows mid-walk: both kernels read
							// the same post-batch state, so lockstep must
							// survive mutation.
							batch := make([]graph.Update, 0, 32)
							for i := 0; i < 32; i++ {
								batch = append(batch, graph.Update{
									Op:   graph.OpInsert,
									Src:  graph.VertexID(upd.Intn(benchHubs)),
									Dst:  graph.VertexID(2048 + upd.Intn(64)),
									Bias: uint64(1 + upd.Intn(1000)),
								})
							}
							if _, err := tc.apply(batch); err != nil {
								t.Fatalf("round %d: ApplyBatch: %v", round, err)
							}
						}
						conc.slots, conc.runs, staged.staged = 0, 0, 0
						k.stepBatch(kf)
						if round == 0 {
							tc.taken(t, sh.name, sh.n)
						}
						ref.stepBatch(rf)
						for i := 0; i < sh.n; i++ {
							// next is unspecified when ok is false (dead end).
							if kf.ok[i] != rf.ok[i] || (kf.ok[i] && kf.next[i] != rf.next[i]) {
								t.Fatalf("round %d slot %d: kernel drew (%d,%v), per-slot reference drew (%d,%v) from %d",
									round, i, kf.next[i], kf.ok[i], rf.next[i], rf.ok[i], rf.cur[i])
							}
						}
						kdAdvance(kf)
						kdAdvance(rf)
					}
				})
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
		t.Errorf("hub %d: chi-square stat %.2f p=%.2e — batched view draws diverge from the exact distribution", u, stat, p)
	}
}

// TestKernelViewChiSquare gates the batched-with-views path on a quiet
// graph: the whole frontier parks on the hub, so every round is one run
// the cached view serves after the first round, and 120k draws must match
// the view's exact probabilities.
func TestKernelViewChiSquare(t *testing.T) {
	e := benchHubEngine(t, 2048)
	k := newStepKernel(e, fabric.CacheSpec{})
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

// TestKernelHubChurnMidBatch runs the kernel against a writer that keeps
// rewriting the hub rows, so cached views go stale between and during
// rounds. The hub-parked frontier seats ~32 walkers per hub, so every
// round batches through the view path (run with -race: concurrent extraction, validation, and
// invalidation is the thing under test). After the churn stops, the
// refreshed views must still pass the 120k-draw chi-square gate.
func TestKernelHubChurnMidBatch(t *testing.T) {
	const verts = 2048
	e := benchHubEngine(t, verts)
	k := newStepKernel(e, fabric.CacheSpec{})
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
