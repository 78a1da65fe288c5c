package walk

import (
	"sync"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// Kernel round instrumentation, resolved once at init. Two counter adds
// per *round* (up to kernelBatch steps), plus one histogram observation
// for rounds of at least denseMinBatch slots, so the per-step overhead is
// amortized to nothing. Smaller rounds — a single-start DeepWalk steps a
// one-slot frontier — skip the timestamp pair, which would cost as much
// as the step; the kill switch removes even the counter adds.
var (
	kernelRounds  = obs.C("bingo_kernel_rounds_total")
	kernelSteps   = obs.C("bingo_kernel_steps_total")
	kernelRoundNs = obs.H("bingo_kernel_round_seconds")
)

// This file is the shared stepping kernel every serving loop in the
// package runs on: the LiveService pool, the shardNode crews, the corpus
// regrow, and DeepWalk over every engine. It replaces the near-duplicate
// per-walker loops those layers used to carry.
//
// The kernel steps a *frontier* — a SoA batch of in-flight walkers — one
// hop per round. Walkers parked on the same vertex form a run, and a run
// can be stepped through one batch draw: one stripe lock/epoch validation
// (or one cache probe and view validation) amortized over every walker in
// the run, instead of the full per-hop machinery once per walker. Which
// draw path a round takes — one staged draw, per-run batches, or slot by
// slot — is decided in stepBatchImpl and nowhere else, from the engine's
// capabilities and the frontier's shape.
//
// Draw-for-draw discipline: every slot draws from its own RNG stream on
// every path, and the locked batch and staged draws consume each stream
// exactly as a per-walker locked sample would, so the kernel's walks are
// identical to the per-slot reference (the same engine with its optional
// capabilities hidden) whenever draws go through the engine. Only the
// view path (hub cache hits) consumes streams differently — exactly as
// the per-walker view cache already did — so batched rounds are
// distributionally exact rather than path-identical once hub views serve
// hops, and the differential gates test them that way (chi-square).

// BatchSampler is the optional Engine capability batched stepping requires:
// draw one sample per walker from a single vertex under one lock/epoch
// round, and the view-extracting variant the hub caches batch-fill
// through. concurrent.Engine implements it; engines without it step
// slot by slot.
type BatchSampler interface {
	// SampleBatch draws one sample from u per slot (slot i with rs[i])
	// under a single lock acquisition. false means u has no sampleable
	// mass. len(dst) must be at least len(rs).
	SampleBatch(u graph.VertexID, rs []*xrand.RNG, dst []graph.VertexID) bool
	// SampleBatchOrView additionally extracts a versioned view for the
	// caller to cache when u's degree reaches minDegree, drawing the
	// batch from the view outside the lock.
	SampleBatchOrView(u graph.VertexID, minDegree int, rs []*xrand.RNG, dst []graph.VertexID) (bool, *core.VertexView)
}

// FrontierSampler is the optional Engine capability of a staged draw over
// a whole frontier: next[i], ok[i] := Sample(cur[i], rs[i]) for every
// slot, with each stream consumed exactly as Sample consumes it, but one
// dependent load at a time across all slots so the slots' cache misses
// overlap. core.Sampler implements it; it needs no lock, so engines that
// take one per draw (concurrent.Engine) batch through BatchSampler
// instead.
type FrontierSampler interface {
	SampleFrontier(cur []graph.VertexID, rs []*xrand.RNG, next []graph.VertexID, ok []bool)
}

const (
	// denseMinRun is the density threshold: runs of at least
	// this many co-located walkers batch their draws. Below it the
	// per-run bookkeeping (gather/scatter through the run scratch) costs
	// about as much as the lock round it would amortize away.
	denseMinRun = 4
	// denseMinBatch is the frontier floor: frontiers smaller
	// than this skip grouping entirely — sorting a handful of slots
	// cannot pay for itself.
	denseMinBatch = 8
	// kernelBatch is the frontier capacity batch consumers default to:
	// large enough that hub runs reach batchable size under skew (a
	// 32-hub frontier seats ~32 walkers per hub per round, amortizing
	// the per-run cache probe and validation), small enough that the
	// SoA scratch stays cache-resident.
	kernelBatch = 1024
)

// frontier is the SoA walker-state batch a kernel steps. Slots [0, n)
// are live; cur and rng are the kernel's inputs, next and ok its
// outputs. Consumers keep any per-walker payload (hop counts, fabric
// walkers, visit tallies) in their own parallel slices and compact them
// alongside. Frontiers are pooled: the grouping index, gather scratch,
// and backing RNG values are reused across rounds and batches, so a
// steady-state stepping loop allocates nothing.
type frontier struct {
	n    int
	cur  []graph.VertexID
	rng  []*xrand.RNG
	next []graph.VertexID
	ok   []bool

	idx    []int32          // grouping order, runs contiguous in first-appearance order
	runEnd []int32          // exclusive end offsets of runs within idx
	grs    []*xrand.RNG     // gathered per-run RNG scratch
	gdst   []graph.VertexID // gathered per-run draw scratch

	// Run-grouping scratch: a generation-stamped open-addressing table
	// maps vertex → run, slotRun tags each slot with its run, and runCur
	// holds the placement cursors, so grouping is two O(n) passes with no
	// sorting and no clearing between rounds.
	slotRun []int32
	runCur  []int32
	htKey   []graph.VertexID
	htRun   []int32
	htGen   []uint32
	gen     uint32

	// rngBack is the pooled generator backing store for consumers whose
	// walkers arrive with serialized RNG state (the fabric crews):
	// seatRNG re-seats a wire state into slot i's value in place, so no
	// generator is allocated per walker.
	rngBack []xrand.RNG
}

var frontierPool = sync.Pool{New: func() any { return new(frontier) }}

// getFrontier returns a pooled frontier with capacity for n slots.
func getFrontier(n int) *frontier {
	f := frontierPool.Get().(*frontier)
	f.grow(n)
	f.n = 0
	return f
}

// putFrontier returns f to the pool. Callers must not retain f.
func putFrontier(f *frontier) {
	for i := range f.rng {
		f.rng[i] = nil // drop generator refs so pooled memory pins nothing
	}
	frontierPool.Put(f)
}

func (f *frontier) grow(n int) {
	if cap(f.cur) >= n && len(f.htKey) >= 2*n {
		f.cur = f.cur[:n]
		f.rng = f.rng[:n]
		f.next = f.next[:n]
		f.ok = f.ok[:n]
		f.grs = f.grs[:0]
		f.gdst = f.gdst[:n]
		f.rngBack = f.rngBack[:n]
		f.slotRun = f.slotRun[:n]
		return
	}
	f.cur = make([]graph.VertexID, n)
	f.rng = make([]*xrand.RNG, n)
	f.next = make([]graph.VertexID, n)
	f.ok = make([]bool, n)
	f.idx = make([]int32, 0, n)
	f.runEnd = make([]int32, 0, n)
	f.grs = make([]*xrand.RNG, 0, n)
	f.gdst = make([]graph.VertexID, n)
	f.rngBack = make([]xrand.RNG, n)
	f.slotRun = make([]int32, n)
	f.runCur = make([]int32, 0, n)
	sz := 4
	for sz < 2*n {
		sz <<= 1
	}
	f.htKey = make([]graph.VertexID, sz)
	f.htRun = make([]int32, sz)
	f.htGen = make([]uint32, sz)
	f.gen = 0
}

// groupRuns groups the live slots by current vertex into f.idx: runs are
// contiguous, ordered by each vertex's first appearance, and slots within
// a run keep increasing slot order — deterministic for a given frontier,
// with no comparison sort. The hash pass tags each slot with its run and
// counts run sizes; a prefix sum turns the counts into run ends and a
// reverse placement pass emits the slots (filling each run from its end
// in descending slot order preserves ascending order within the run)
// without the dependent loads a chained emit would pay. f.runEnd holds
// the exclusive end offset of each run.
func (f *frontier) groupRuns() {
	n := f.n
	mask := uint32(len(f.htKey) - 1)
	f.gen++
	if f.gen == 0 { // generation wrap: stale stamps could alias
		for i := range f.htGen {
			f.htGen[i] = 0
		}
		f.gen = 1
	}
	runEnd := f.runEnd[:0]
	slotRun := f.slotRun[:n]
	for i := 0; i < n; i++ {
		v := f.cur[i]
		h := uint32((uint64(v) * 0x9e3779b97f4a7c15) >> 40)
		for h &= mask; ; h = (h + 1) & mask {
			if f.htGen[h] != f.gen {
				f.htGen[h] = f.gen
				f.htKey[h] = v
				r := int32(len(runEnd))
				f.htRun[h] = r
				runEnd = append(runEnd, 1)
				slotRun[i] = r
				break
			}
			if f.htKey[h] == v {
				r := f.htRun[h]
				runEnd[r]++
				slotRun[i] = r
				break
			}
		}
	}
	sum := int32(0)
	for r := range runEnd {
		sum += runEnd[r]
		runEnd[r] = sum
	}
	cur := append(f.runCur[:0], runEnd...)
	idx := f.idx[:n]
	for i := n - 1; i >= 0; i-- {
		r := slotRun[i]
		cur[r]--
		idx[cur[r]] = int32(i)
	}
	f.idx = idx
	f.runEnd = runEnd
	f.runCur = cur
}

// slotRNG returns slot i's pooled generator, wiring one up on first use.
// Slot generators follow their slots through swaps, so a slot freed by
// compaction hands its generator to the walker that reuses the slot —
// the steady-state loop never allocates one.
func (f *frontier) slotRNG(i int) *xrand.RNG {
	r := f.rng[i]
	if r == nil {
		r = &f.rngBack[i]
		f.rng[i] = r
	}
	return r
}

// seatRNG re-seats a serialized stream into slot i's pooled generator.
// The returned pointer stays valid until the frontier is released.
func (f *frontier) seatRNG(i int, st xrand.State) *xrand.RNG {
	r := f.slotRNG(i)
	r.SetState(st)
	return r
}

// swap exchanges slots i and j (the consumer-side compaction primitive;
// consumers swap their payload slices in lockstep).
func (f *frontier) swap(i, j int) {
	f.cur[i], f.cur[j] = f.cur[j], f.cur[i]
	f.rng[i], f.rng[j] = f.rng[j], f.rng[i]
	f.next[i], f.next[j] = f.next[j], f.next[i]
	f.ok[i], f.ok[j] = f.ok[j], f.ok[i]
}

// stepKernel is the shared stepping kernel. One kernel belongs to one
// goroutine (it owns a private view cache, like the loops it replaced);
// the engine and views it draws from are the concurrency-safe layers
// below.
type stepKernel struct {
	e  Engine
	ve ViewSampler     // nil: engine without views, or cache off
	be BatchSampler    // nil: engine without batch draws → slot by slot
	fe FrontierSampler // nil: engine without staged draws, or cache on
	vc *viewCache      // nil: cache off
}

// newStepKernel builds a kernel over e. The cache spec has the usual
// fabric semantics (zero value = hub caches on with defaults, Off
// disables). The draw paths open to the kernel are the optional
// capabilities e implements; an engine with none of them steps slot by
// slot, which is how tests build the per-slot reference.
func newStepKernel(e Engine, cache fabric.CacheSpec) *stepKernel {
	k := &stepKernel{e: e}
	if !cache.Off {
		if ve, ok := e.(ViewSampler); ok {
			k.ve = ve
			k.vc = newViewCache(DefaultHubCacheSize, cache.MinDegree)
		}
	}
	if be, ok := e.(BatchSampler); ok {
		k.be = be
	}
	if fe, ok := e.(FrontierSampler); ok && k.vc == nil {
		k.fe = fe
	}
	return k
}

// step draws one hop for a single walker — the per-slot path: through
// the goroutine's hub-view cache when one is configured, through the
// engine's locked sample otherwise.
func (k *stepKernel) step(u graph.VertexID, r *xrand.RNG) (graph.VertexID, bool) {
	return k.vc.sample(k.ve, k.e, u, r)
}

// walkPath is the first-order walk primitive: walk up to length steps
// from start through the given sampling function, reusing buf. Single
// independent walks (queries, path emission, corpus fallbacks) have no
// co-location to exploit, so they step here rather than on a frontier.
func walkPath(sample func(u graph.VertexID, r *xrand.RNG) (graph.VertexID, bool), start graph.VertexID, length int, r *xrand.RNG, buf []graph.VertexID) []graph.VertexID {
	buf = append(buf[:0], start)
	cur := start
	for hop := 0; hop < length; hop++ {
		next, ok := sample(cur, r)
		if !ok {
			break
		}
		cur = next
		buf = append(buf, cur)
	}
	return buf
}

// stepBatch advances every live slot of f one hop: next[i], ok[i] :=
// one draw from cur[i] with rng[i], along the draw path stepBatchImpl
// picks. The round's latency is recorded only for frontiers of at least
// denseMinBatch slots.
func (k *stepKernel) stepBatch(f *frontier) {
	if !obs.On() {
		k.stepBatchImpl(f)
		return
	}
	if f.n < denseMinBatch {
		k.stepBatchImpl(f)
	} else {
		t0 := time.Now()
		k.stepBatchImpl(f)
		kernelRoundNs.ObserveSince(t0)
	}
	kernelRounds.Inc()
	kernelSteps.Add(int64(f.n))
}

// stepBatchImpl is the kernel's one draw-path rule:
//   - an engine with a staged frontier draw and no view cache draws the
//     whole frontier in one call;
//   - an engine without batch draws, or a frontier below denseMinBatch,
//     steps each slot independently;
//   - otherwise slots are grouped into per-vertex runs (see groupRuns —
//     deterministic, no sort); runs of at least denseMinRun walkers step
//     through one batch draw, shorter runs slot by slot.
//
// With hub caches off every slot draws from its own stream on every
// path, so grouping order never changes any walker's draws (the lockstep
// contract); cached-view hits draw the whole run from the lead slot's
// stream, where the contract is distributional exactness.
func (k *stepKernel) stepBatchImpl(f *frontier) {
	n := f.n
	if k.fe != nil {
		k.fe.SampleFrontier(f.cur[:n], f.rng[:n], f.next[:n], f.ok[:n])
		return
	}
	if k.be == nil || n < denseMinBatch {
		for i := 0; i < n; i++ {
			f.next[i], f.ok[i] = k.step(f.cur[i], f.rng[i])
		}
		return
	}
	f.groupRuns()
	lo := int32(0)
	for _, hi := range f.runEnd {
		run := f.idx[lo:hi]
		if len(run) < denseMinRun {
			for _, s := range run {
				f.next[s], f.ok[s] = k.step(f.cur[s], f.rng[s])
			}
		} else {
			k.stepRun(f.cur[run[0]], run, f)
		}
		lo = hi
	}
}

// stepRun draws one hop for every walker of a co-located run through a
// single batch draw and scatters the drawn next-hops back. A cache hit
// draws the run from the lead slot's stream without touching the other
// slots' generators; only the miss path gathers the per-slot RNGs for
// the engine's locked batch.
func (k *stepKernel) stepRun(u graph.VertexID, run []int32, f *frontier) {
	dst := f.gdst[:len(run)]
	var ok bool
	if vw := k.vc.hitView(k.ve, u, len(run)); vw != nil {
		ok = vw.SampleBatchOne(f.rng[run[0]], dst)
	} else {
		rs := f.grs[:0]
		for _, s := range run {
			rs = append(rs, f.rng[s])
		}
		f.grs = rs[:0]
		ok = k.vc.fillBatch(k.ve, k.be, u, rs, dst)
	}
	for i, s := range run {
		f.next[s] = dst[i]
		f.ok[s] = ok
	}
}

// flushCacheStats drains the kernel's private cache counters into the
// caller's accumulators (no-op without a cache).
func (k *stepKernel) flushCacheStats(hits, stale *int64) {
	if k.vc == nil {
		return
	}
	*hits += k.vc.hits
	*stale += k.vc.stale
	k.vc.hits, k.vc.stale = 0, 0
}
