// Package concurrent layers walk-while-ingest concurrency control on top of
// core.Sampler: the Engine wrapper lets any number of walker goroutines
// sample while writer goroutines insert, delete, and batch-apply updates —
// the production serving scenario of a live graph (Wharf's snapshot-style
// walk/ingest overlap, KnightKing's concurrent walker fleet).
//
// # Locking model
//
// Vertices are hashed onto a fixed array of lock stripes (default
// GOMAXPROCS×8, rounded up to a power of two). Every operation on vertex u
// acquires stripe(u): readers (Sample, SampleSeq, Degree, HasEdge) take the
// stripe's RWMutex in read mode, mutators (Insert, Delete, UpdateBias,
// ApplyBatch) in write mode. Because an update to u's row touches only u's
// row — the invariant internal/core's own batch parallelism relies on, plus
// atomic global counters — operations on vertices in distinct stripes never
// contend, and readers of the same stripe share it.
//
// The one piece of genuinely global mutable state is the vertex-ID space
// itself (the samplers' top-level slices grow when an update references an
// unseen vertex). Growth is a stop-the-world event: the grower acquires
// every stripe in ascending order, grows, and releases. Operations hold at
// most one stripe at a time, so this cannot deadlock.
//
// # Epoch protocol
//
// Each stripe carries a seqlock-style epoch counter: a writer increments it
// to odd after acquiring the stripe and back to even before releasing.
// Every individual read is already linearizable via the stripe lock; the
// epochs exist for *cross-call* consistency. A walker that reads the epoch,
// performs a step, and revalidates knows whether the stripe mutated inside
// its step window — Step retries the draw in that case (bounded by
// MaxStepRetries), so a multi-call step sequence (e.g. a sample followed by
// a HasEdge probe against the same vertex) can be made effectively
// atomic-or-retried instead of observing two different graph versions.
//
// # View versions
//
// Cached views validate against a separate, finer-grained counter: a
// per-*vertex* seqlock version (plus a global generation that advances on
// any stop-the-world event). Stripe epochs answer "did anything on this
// stripe move inside my step window" — the right question for a
// microsecond-scale step. A cached hub view lives for thousands of draws,
// and hashing it onto a stripe epoch would let every write to every vertex
// sharing the stripe kill it. Per-vertex versions mean an ingest batch
// invalidates exactly the views of rows it rewrote — the property that
// keeps hub caches alive under sustained non-hub ingest.
package concurrent

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// DefaultStripesPerProc scales the default stripe count with GOMAXPROCS.
const DefaultStripesPerProc = 8

// DefaultMaxStepRetries bounds epoch-validation retries per walk step.
const DefaultMaxStepRetries = 4

// Config parameterizes the wrapper. The zero value selects all defaults.
type Config struct {
	// Stripes is the lock-stripe count, rounded up to a power of two.
	// Zero selects GOMAXPROCS × DefaultStripesPerProc.
	Stripes int
	// MaxStepRetries bounds how often Step re-draws when the stripe's
	// epoch advanced inside the step window. Zero selects
	// DefaultMaxStepRetries. After the bound the (still linearizable)
	// locked sample is accepted.
	MaxStepRetries int
	// Workers bounds ApplyBatch fan-out; zero defers to the sampler's
	// core.Config.Workers.
	Workers int
}

func (c Config) normalized() Config {
	if c.Stripes <= 0 {
		c.Stripes = runtime.GOMAXPROCS(0) * DefaultStripesPerProc
	}
	n := 1
	for n < c.Stripes {
		n <<= 1
	}
	c.Stripes = n
	if c.MaxStepRetries <= 0 {
		c.MaxStepRetries = DefaultMaxStepRetries
	}
	return c
}

// stripe is one lock unit, padded to its own cache line so that stripe
// metadata of busy neighbors does not false-share.
type stripe struct {
	mu    sync.RWMutex
	epoch atomic.Uint64
	_     [64 - 32]byte
}

// viewVersions is the per-vertex view-version table: ver[u] is u's seqlock
// counter (odd exactly while u's row is being rewritten), gen the global
// generation. The table is swapped wholesale — new header, gen+1 — under a
// stop-the-world acquisition (growth, Quiesce), which conservatively
// invalidates every outstanding view; per-vertex bumps happen in place
// under the vertex's stripe write lock. A view's stamp packs both halves
// into its Epoch field as gen<<32 | ver.
//
// shared[u] is the engine-wide extraction-dedup slot: the last view
// extracted of u, returned verbatim to every extractor whose stamp check
// still passes. Views are immutable snapshots, so handing the same
// object to every walker is safe — and essential: without the slot, k
// concurrent walkers each extract a private O(degree) copy of every hub
// (k× the alias builds, k× the cache footprint), and on machines where
// the copies outgrow a cache level the dense kernel pays DRAM for table
// rows the sparse kernel reads from the one shared CSR. A slot holding a
// stale view (stamp mismatch) is simply overwritten by the next
// extractor; on generation swaps the slice is reused, so at most one
// retired view per vertex lingers until then.
type viewVersions struct {
	gen    uint32
	ver    []atomic.Uint32
	shared []atomic.Pointer[core.VertexView]
}

// Engine is a concurrency-safe facade over a core.Sampler. All methods are
// safe for arbitrary concurrent use (each goroutine needs its own RNG).
// The wrapped sampler must not be used directly while the Engine is live
// except through Quiesce.
type Engine struct {
	s       *core.Sampler
	stripes []stripe
	mask    uint32
	retries int
	workers int
	vv      atomic.Pointer[viewVersions]
}

// Wrap takes ownership of an existing sampler.
func Wrap(s *core.Sampler, cfg Config) *Engine {
	cfg = cfg.normalized()
	workers := cfg.Workers
	if workers <= 0 {
		workers = s.Config().Workers
	}
	e := &Engine{
		s:       s,
		stripes: make([]stripe, cfg.Stripes),
		mask:    uint32(cfg.Stripes - 1),
		retries: cfg.MaxStepRetries,
		workers: workers,
	}
	e.vv.Store(&viewVersions{
		ver:    make([]atomic.Uint32, s.NumVertices()),
		shared: make([]atomic.Pointer[core.VertexView], s.NumVertices()),
	})
	return e
}

// New creates an empty sampler over numVertices vertices and wraps it.
func New(numVertices int, ccfg core.Config, cfg Config) (*Engine, error) {
	s, err := core.New(numVertices, ccfg)
	if err != nil {
		return nil, err
	}
	return Wrap(s, cfg), nil
}

// stripeIndex hashes u onto its stripe. The multiplicative mix spreads
// contiguous vertex IDs (the common ID assignment) across stripes.
func (e *Engine) stripeIndex(u graph.VertexID) int {
	h := uint32(u) * 2654435761 // Knuth's golden-ratio multiplier
	return int((h ^ (h >> 16)) & e.mask)
}

func (e *Engine) stripeOf(u graph.VertexID) *stripe { return &e.stripes[e.stripeIndex(u)] }

// Stripes returns the stripe count.
func (e *Engine) Stripes() int { return len(e.stripes) }

// Config returns the wrapped sampler's configuration (immutable).
func (e *Engine) Config() core.Config { return e.s.Config() }

// lockAll acquires every stripe in ascending order and marks every epoch
// busy — the stop-the-world path used for vertex-space growth and Quiesce.
func (e *Engine) lockAll() {
	for i := range e.stripes {
		e.stripes[i].mu.Lock()
		e.stripes[i].epoch.Add(1)
	}
}

func (e *Engine) unlockAll() {
	// Stop-the-world mutations may have touched anything (growth, Quiesce
	// callbacks, range extraction), so retire the whole view generation:
	// every outstanding view stamp fails its gen check. The version slice
	// is reused when the vertex space did not grow — the counters stay
	// valid, only the generation moves.
	old := e.vv.Load()
	nv := &viewVersions{gen: old.gen + 1, ver: old.ver, shared: old.shared}
	if n := e.s.NumVertices(); n > len(old.ver) {
		nv.ver = make([]atomic.Uint32, n)
		nv.shared = make([]atomic.Pointer[core.VertexView], n)
	}
	e.vv.Store(nv)
	for i := range e.stripes {
		e.stripes[i].epoch.Add(1)
		e.stripes[i].mu.Unlock()
	}
}

// sharedView returns the engine-wide view of u at stamp ep, extracting
// and publishing a fresh snapshot only when the dedup slot holds none.
// Call under u's stripe read lock with ep = viewStamp(u): the lock pins
// the stamp, so a slot hit is exactly the state a fresh extraction would
// snapshot, and concurrent extractors racing the store publish
// interchangeable snapshots of the same version. Vertices beyond the
// table (extracted mid-growth under an old header) fall back to a
// private copy.
func (e *Engine) sharedView(u graph.VertexID, ep uint64) *core.VertexView {
	vv := e.vv.Load()
	if int(u) >= len(vv.shared) {
		vw := e.s.ViewOf(u)
		vw.Epoch = ep
		return &vw
	}
	slot := &vv.shared[u]
	if vw := slot.Load(); vw != nil && vw.Epoch == ep {
		return vw
	}
	vw := e.s.ViewOf(u)
	vw.Epoch = ep
	slot.Store(&vw)
	return &vw
}

// viewStamp packs u's current view version for stamping into an extracted
// view. Call under u's stripe read lock: per-vertex bumps happen under the
// stripe write lock and generation swaps under every write lock, so the
// loaded pair is consistent and the version half is even.
func (e *Engine) viewStamp(u graph.VertexID) uint64 {
	vv := e.vv.Load()
	s := uint64(vv.gen) << 32
	if int(u) < len(vv.ver) {
		s |= uint64(vv.ver[u].Load())
	}
	return s
}

// bumpView advances u's view version by one. Writers call it (under u's
// stripe write lock) immediately before and after rewriting u's row, so
// the version is odd exactly during the rewrite and any view extracted
// before it fails validation after.
func (e *Engine) bumpView(u graph.VertexID) {
	vv := e.vv.Load()
	if int(u) < len(vv.ver) {
		vv.ver[u].Add(1)
	}
}

// ---------------------------------------------------------------------------
// Readers

// Sample draws a neighbor of u with probability bias/Σbias. It is the
// walk.Engine sampling entry point; calls on vertices in distinct stripes
// proceed without contention.
func (e *Engine) Sample(u graph.VertexID, r *xrand.RNG) (graph.VertexID, bool) {
	st := e.stripeOf(u)
	st.mu.RLock()
	v, ok := e.s.Sample(u, r)
	st.mu.RUnlock()
	return v, ok
}

// SampleSeq draws up to len(dst) independent samples from u under a single
// stripe acquisition, amortizing the lock over the sequence. It returns the
// number of samples drawn (0 when u has no sampleable mass). All samples
// observe the same graph version.
func (e *Engine) SampleSeq(u graph.VertexID, dst []graph.VertexID, r *xrand.RNG) int {
	st := e.stripeOf(u)
	st.mu.RLock()
	n := 0
	for n < len(dst) {
		v, ok := e.s.Sample(u, r)
		if !ok {
			break
		}
		dst[n] = v
		n++
	}
	st.mu.RUnlock()
	return n
}

// SampleBatch draws one sample from u per slot under a single stripe
// acquisition — slot i drawn with rs[i] — so a frontier of k co-located
// walkers pays one lock/epoch round instead of k. Slot i's draw consumes
// rs[i]'s stream exactly as a standalone Sample(u, rs[i]) would, which is
// what keeps batched stepping draw-for-draw compatible with per-walker
// stepping. Returns false when u has no sampleable mass (no stream is
// consumed then). len(dst) must be at least len(rs).
func (e *Engine) SampleBatch(u graph.VertexID, rs []*xrand.RNG, dst []graph.VertexID) bool {
	st := e.stripeOf(u)
	st.mu.RLock()
	ok := true
	for i, r := range rs {
		v, sampled := e.s.Sample(u, r)
		if !sampled {
			ok = false
			break
		}
		dst[i] = v
	}
	st.mu.RUnlock()
	return ok
}

// SampleBatchOrView is the batch form of SampleOrView, the frontier
// kernel's cache-fill path: one stripe acquisition that, when u's degree
// is at least minDegree (a hub by the caller's threshold), extracts a
// versioned view and draws the whole batch from it outside the lock —
// the caller caches the view and later batches draw lock-free. Otherwise
// every slot is drawn under the single lock, as SampleBatch does.
// minDegree <= 0 never extracts.
func (e *Engine) SampleBatchOrView(u graph.VertexID, minDegree int, rs []*xrand.RNG, dst []graph.VertexID) (bool, *core.VertexView) {
	st := e.stripeOf(u)
	st.mu.RLock()
	if minDegree > 0 && e.s.Degree(u) >= minDegree {
		vw := e.sharedView(u, e.viewStamp(u))
		st.mu.RUnlock()
		ok := vw.SampleBatch(rs, dst)
		return ok, vw
	}
	ok := true
	for i, r := range rs {
		v, sampled := e.s.Sample(u, r)
		if !sampled {
			ok = false
			break
		}
		dst[i] = v
	}
	st.mu.RUnlock()
	return ok, nil
}

// Degree returns u's out-degree.
func (e *Engine) Degree(u graph.VertexID) int {
	st := e.stripeOf(u)
	st.mu.RLock()
	d := e.s.Degree(u)
	st.mu.RUnlock()
	return d
}

// HasEdge reports whether at least one edge u→dst is live.
func (e *Engine) HasEdge(u, dst graph.VertexID) bool {
	st := e.stripeOf(u)
	st.mu.RLock()
	ok := e.s.HasEdge(u, dst)
	st.mu.RUnlock()
	return ok
}

// NumVertices returns the vertex-ID space size. Holding any stripe excludes
// space growth (growth takes every stripe), so a single read lock suffices.
func (e *Engine) NumVertices() int {
	st := &e.stripes[0]
	st.mu.RLock()
	n := e.s.NumVertices()
	st.mu.RUnlock()
	return n
}

// NumEdges returns the live edge count (maintained atomically; no lock).
func (e *Engine) NumEdges() int64 { return e.s.NumEdges() }

// Footprint returns the sampler's memory footprint. It walks every row and
// therefore quiesces the engine.
func (e *Engine) Footprint() int64 {
	var b int64
	e.Quiesce(func(s *core.Sampler) { b = s.Footprint() })
	return b
}

// ---------------------------------------------------------------------------
// Epoch protocol

// Epoch returns the current epoch of u's stripe. Even values are stable;
// odd values mean a writer currently holds the stripe.
func (e *Engine) Epoch(u graph.VertexID) uint64 {
	return e.stripeOf(u).epoch.Load()
}

// Validate reports whether u's stripe is stable and has not mutated since
// epoch was observed.
func (e *Engine) Validate(u graph.VertexID, epoch uint64) bool {
	return epoch&1 == 0 && e.stripeOf(u).epoch.Load() == epoch
}

// ViewOf extracts a versioned immutable view of u's sampling state: the
// core snapshot stamped with u's own view version (generation plus
// per-vertex seqlock counter) at extraction. The view samples lock-free
// with the engine's exact probabilities for as long as ValidateView holds;
// afterwards it must be dropped and re-extracted. Extraction costs
// O(degree) — callers cache views of hot (hub) vertices, where the copy
// amortizes over many lock-free draws.
func (e *Engine) ViewOf(u graph.VertexID) *core.VertexView {
	st := e.stripeOf(u)
	st.mu.RLock()
	vw := e.sharedView(u, e.viewStamp(u))
	st.mu.RUnlock()
	return vw
}

// ValidateView reports whether vw still reflects its vertex's current
// state: the generation it was extracted under is still live (no
// stop-the-world event since) and the vertex's own row has not been
// rewritten. Writes to *other* vertices — same stripe or not — do not
// invalidate it; that is what lets cached hub views survive sustained
// ingest that never touches the hubs' out-rows.
func (e *Engine) ValidateView(vw *core.VertexView) bool {
	vv := e.vv.Load()
	if uint32(vw.Epoch>>32) != vv.gen {
		return false
	}
	want := uint32(vw.Epoch)
	if want&1 != 0 {
		return false
	}
	if int(vw.Vertex) >= len(vv.ver) {
		return want == 0
	}
	return vv.ver[vw.Vertex].Load() == want
}

// SampleOrView is the cache-fill read path: one stripe acquisition that
// draws a sample and, when u's degree is at least minDegree (a hub by the
// caller's threshold), also extracts a versioned view for the caller to
// cache — the sample is then drawn from the view itself, outside the
// lock. minDegree <= 0 never extracts.
func (e *Engine) SampleOrView(u graph.VertexID, minDegree int, r *xrand.RNG) (graph.VertexID, bool, *core.VertexView) {
	st := e.stripeOf(u)
	st.mu.RLock()
	if minDegree > 0 && e.s.Degree(u) >= minDegree {
		vw := e.sharedView(u, e.viewStamp(u))
		st.mu.RUnlock()
		v, ok := vw.Sample(r)
		return v, ok, vw
	}
	v, ok := e.s.Sample(u, r)
	st.mu.RUnlock()
	return v, ok, nil
}

// Step draws one walk step from cur with epoch validation. The locked
// sample is already linearizable on its own; what the validate-and-retry
// adds is *freshness* — a step accepted on a clean epoch window reflects
// the graph version current across the whole window, and a walker
// composing Step with other per-stripe reads (HasEdge, Degree) under the
// same epoch gets cross-call consistency it can check with Validate. If
// the stripe mutated inside the window the draw is retried; after
// MaxStepRetries the locked sample is accepted. retried reports how many
// re-draws occurred (telemetry for the differential harness).
func (e *Engine) Step(cur graph.VertexID, r *xrand.RNG) (next graph.VertexID, ok bool, retried int) {
	st := e.stripeOf(cur)
	for try := 0; ; try++ {
		e0 := st.epoch.Load()
		st.mu.RLock()
		v, sampled := e.s.Sample(cur, r)
		st.mu.RUnlock()
		if e0&1 == 0 && st.epoch.Load() == e0 {
			return v, sampled, try
		}
		if try >= e.retries {
			return v, sampled, try
		}
	}
}

// WalkFrom performs a first-order walk of up to length steps from start,
// appending visited vertices (including start) to buf and returning it plus
// the total number of epoch retries along the way. Each step is drawn with
// Step's validate-and-retry protocol, so every hop individually reflects a
// stable graph version even while writers interleave.
func (e *Engine) WalkFrom(start graph.VertexID, length int, r *xrand.RNG, buf []graph.VertexID) ([]graph.VertexID, int) {
	buf = append(buf[:0], start)
	cur := start
	retries := 0
	for hop := 0; hop < length; hop++ {
		next, ok, retried := e.Step(cur, r)
		retries += retried
		if !ok {
			break
		}
		cur = next
		buf = append(buf, cur)
	}
	return buf, retries
}

// ---------------------------------------------------------------------------
// Writers

// write runs fn with stripe(u) held in write mode and the epoch marked
// busy. need is the smallest vertex-space size fn requires, or 0 when fn
// must never grow the space (deletes and bias updates fail fast on unseen
// vertices instead — growing stop-the-world for an edge that cannot exist
// would let one garbage ID stall every walker and inflate memory). When
// the space is too small for a growing op, the mutation instead runs under
// a stop-the-world acquisition so the growth of the sampler's top-level
// slices cannot race with readers on other stripes.
func (e *Engine) write(u graph.VertexID, need int, fn func() error) error {
	st := e.stripeOf(u)
	st.mu.Lock()
	if e.s.NumVertices() >= need {
		st.epoch.Add(1)
		e.bumpView(u)
		err := fn()
		e.bumpView(u)
		st.epoch.Add(1)
		st.mu.Unlock()
		return err
	}
	st.mu.Unlock()
	e.lockAll()
	e.s.EnsureVertexSpace(need)
	err := fn()
	e.unlockAll()
	return err
}

func maxNeed(u, dst graph.VertexID) int {
	if dst > u {
		u = dst
	}
	return int(u) + 1
}

// validateInsert rejects an insertion's bias before any lock or growth —
// a garbage insert with a huge vertex ID must not trigger stop-the-world
// space growth only to fail inside the sampler afterwards. ValidateUpdates
// reads only immutable sampler state, so no lock is needed.
func (e *Engine) validateInsert(u, dst graph.VertexID, bias uint64, fbias float64) error {
	up := [1]graph.Update{{Op: graph.OpInsert, Src: u, Dst: dst, Bias: bias, FBias: fbias}}
	_, err := e.s.ValidateUpdates(up[:])
	return err
}

// Insert adds edge u→dst with an integer bias (streaming path, O(K)).
func (e *Engine) Insert(u, dst graph.VertexID, bias uint64) error {
	if err := e.validateInsert(u, dst, bias, 0); err != nil {
		return err
	}
	return e.write(u, maxNeed(u, dst), func() error { return e.s.Insert(u, dst, bias) })
}

// InsertFloat adds edge u→dst with a float weight (float mode only).
func (e *Engine) InsertFloat(u, dst graph.VertexID, w float64) error {
	if !e.s.Config().FloatBias {
		// Fails fast inside the sampler; no growth for a doomed insert.
		return e.write(u, 0, func() error { return e.s.InsertFloat(u, dst, w) })
	}
	if err := e.validateInsert(u, dst, 0, w); err != nil {
		return err
	}
	return e.write(u, maxNeed(u, dst), func() error { return e.s.InsertFloat(u, dst, w) })
}

// InsertEdge adapts Insert/InsertFloat to the walk.Dynamic signature.
func (e *Engine) InsertEdge(u, dst graph.VertexID, bias uint64, fbias float64) error {
	if err := e.validateInsert(u, dst, bias, fbias); err != nil {
		return err
	}
	return e.write(u, maxNeed(u, dst), func() error { return e.s.InsertEdge(u, dst, bias, fbias) })
}

// Delete removes one live instance of edge u→dst (streaming path, O(K)).
// An unseen u fails with core.ErrVertexRange without growing the space.
func (e *Engine) Delete(u, dst graph.VertexID) error {
	return e.write(u, 0, func() error { return e.s.Delete(u, dst) })
}

// DeleteEdge is Delete under the walk.Dynamic signature.
func (e *Engine) DeleteEdge(u, dst graph.VertexID) error { return e.Delete(u, dst) }

// UpdateBias rewrites the bias of one live instance of edge u→dst (O(K)).
// An unseen u fails with core.ErrVertexRange without growing the space.
func (e *Engine) UpdateBias(u, dst graph.VertexID, bias uint64) error {
	return e.write(u, 0, func() error { return e.s.UpdateBias(u, dst, bias) })
}

// UpdateBiasFloat is UpdateBias for float-mode weights.
func (e *Engine) UpdateBiasFloat(u, dst graph.VertexID, w float64) error {
	return e.write(u, 0, func() error { return e.s.UpdateBiasFloat(u, dst, w) })
}

// ensureSpace grows the vertex-ID space to n under a stop-the-world
// acquisition, or returns immediately when it already suffices.
func (e *Engine) ensureSpace(n int) {
	st := &e.stripes[0]
	st.mu.RLock()
	enough := e.s.NumVertices() >= n
	st.mu.RUnlock()
	if enough {
		return
	}
	e.lockAll()
	e.s.EnsureVertexSpace(n)
	e.unlockAll()
}

// ApplyBatch ingests a batch through the §5.2 per-vertex workflow while
// walkers keep running: updates are validated, then the shared
// core.ApplyPerSource orchestration (stable O(n) source reorder,
// per-vertex runs) applies the runs stripe-major — each worker claims a
// whole stripe, so two workers never contend for one, and holds its write
// lock and epoch pair over pieces of at most 64 runs, releasing it
// between pieces. A reader on a touched stripe waits behind at most one
// piece, and observes each vertex's pre- or post-batch row, never a torn
// one; Sample calls on untouched stripes are never blocked. View versions
// still bump per vertex, so only views of rewritten rows invalidate.
func (e *Engine) ApplyBatch(ups []graph.Update) (core.BatchResult, error) {
	if len(ups) == 0 {
		return core.BatchResult{}, nil
	}
	maxV, err := e.s.ValidateUpdates(ups)
	if err != nil {
		return core.BatchResult{}, err
	}
	e.ensureSpace(int(maxV) + 1)
	res := e.s.ApplyPerSource(ups, e.workers, (*stripeGroups)(e), func(u graph.VertexID, ops []graph.Update, sc *core.Scratch) core.BatchResult {
		e.bumpView(u)
		r := e.s.ApplyVertexUpdates(u, ops, sc)
		e.bumpView(u)
		return r
	})
	return res, nil
}

// stripeGroups is the Engine seen as ApplyBatch's core.RunGroups: one
// group per stripe, each piece bracketed by the stripe's write lock and
// epoch pair.
type stripeGroups Engine

func (g *stripeGroups) Groups() int                  { return len(g.stripes) }
func (g *stripeGroups) GroupOf(u graph.VertexID) int { return (*Engine)(g).stripeIndex(u) }

func (g *stripeGroups) Enter(i int) {
	g.stripes[i].mu.Lock()
	g.stripes[i].epoch.Add(1)
}

func (g *stripeGroups) Exit(i int) {
	g.stripes[i].epoch.Add(1)
	g.stripes[i].mu.Unlock()
}

// ApplyUpdates adapts ApplyBatch to the walk.Dynamic signature (tolerant
// deletions, result discarded).
func (e *Engine) ApplyUpdates(ups []graph.Update) error {
	_, err := e.ApplyBatch(ups)
	return err
}

// ApplyStream ingests updates one at a time through the streaming path,
// preserving the slice's order. Deletions of missing edges are skipped, as
// in core.ApplyUpdatesStreaming.
func (e *Engine) ApplyStream(ups []graph.Update) error {
	for i := range ups {
		up := &ups[i]
		var err error
		switch up.Op {
		case graph.OpInsert:
			err = e.InsertEdge(up.Src, up.Dst, up.Bias, up.FBias)
		case graph.OpDelete:
			e.Delete(up.Src, up.Dst) //nolint:errcheck // tolerant semantics
		default:
			err = fmt.Errorf("concurrent: unknown op %v", up.Op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Quiescence

// Quiesce stops the world — every stripe write-locked, epochs marked — and
// runs fn against the raw sampler. Use it for snapshots, invariant checks,
// and any whole-graph read; fn may also mutate (walkers validating across
// the quiescent period will observe the epoch change and retry).
func (e *Engine) Quiesce(fn func(s *core.Sampler)) {
	e.lockAll()
	fn(e.s)
	e.unlockAll()
}

// ExtractRange atomically removes every out-edge of the vertices in
// [lo, hi) and returns insert updates that reconstruct exactly the
// removed rows (per-source adjacency order and weights preserved; float
// weights in unscaled user units). The whole extraction runs under one
// stop-the-world acquisition, so no walker or writer ever observes a
// half-extracted range, and every stripe's epoch advances — cached views
// of the range invalidate like any other write.
//
// A shard installing a copied block calls it to wipe the block's range
// first, which makes re-priming idempotent; the returned rows rebuild the
// range with a plain ApplyUpdates. In-edges pointing *into* the range
// from other vertices are untouched — 1-D ownership partitions rows by
// source, so a block's out-rows are the entirety of what its owner
// holds.
// The bounds are uint64 because the top ownership block of the uint32
// ID space ends at 2³² — inexpressible as a graph.VertexID.
func (e *Engine) ExtractRange(lo, hi uint64) ([]graph.Update, error) {
	if hi < lo {
		return nil, fmt.Errorf("concurrent: ExtractRange [%d, %d)", lo, hi)
	}
	var rows []graph.Update
	var err error
	e.Quiesce(func(s *core.Sampler) {
		top := hi
		if n := uint64(s.NumVertices()); top > n {
			top = n
		}
		var row []graph.Update
		for u64 := lo; u64 < top; u64++ {
			u := graph.VertexID(u64)
			row = s.AppendRowUpdates(u, row[:0])
			if len(row) == 0 {
				continue
			}
			// Delete-then-append keeps the returned rows exactly the rows
			// no longer present here, even under a mid-range failure
			// (never both returned and retained).
			if derr := s.DeleteVertex(u); derr != nil {
				if err == nil {
					err = fmt.Errorf("concurrent: extracting vertex %d: %w", u, derr)
				}
				continue
			}
			rows = append(rows, row...)
		}
	})
	return rows, err
}

// SnapshotRange returns insert updates reconstructing every row in
// [lo, hi) without removing anything — the copy counterpart of
// ExtractRange. It backs replica priming: a rejoined shard is fed a
// quiescent snapshot of each of its group blocks from a live holder,
// which keeps serving the block throughout. The single stop-the-world
// acquisition makes the snapshot a consistent cut: it reflects exactly
// the updates the donor consumed before the copy offer's position in its
// ingest stream, none after.
func (e *Engine) SnapshotRange(lo, hi uint64) ([]graph.Update, error) {
	if hi < lo {
		return nil, fmt.Errorf("concurrent: SnapshotRange [%d, %d)", lo, hi)
	}
	var rows []graph.Update
	e.Quiesce(func(s *core.Sampler) {
		top := hi
		if n := uint64(s.NumVertices()); top > n {
			top = n
		}
		var row []graph.Update
		for u64 := lo; u64 < top; u64++ {
			row = s.AppendRowUpdates(graph.VertexID(u64), row[:0])
			rows = append(rows, row...)
		}
	})
	return rows, nil
}

// DumpEdges returns a quiescent flattening of the live edge multiset —
// the walk.EdgeDumper capability the shard fabric's dump barrier uses to
// read a remote shard's state back for verification.
func (e *Engine) DumpEdges() []graph.Edge {
	var out []graph.Edge
	e.Quiesce(func(s *core.Sampler) {
		g := s.Snapshot()
		for u := 0; u < g.NumVertices(); u++ {
			vid := graph.VertexID(u)
			dsts := g.Neighbors(vid)
			if len(dsts) == 0 {
				continue
			}
			biases := g.Biases(vid)
			fb := g.FBiases(vid)
			for i := range dsts {
				ed := graph.Edge{Src: vid, Dst: dsts[i], Bias: biases[i]}
				if fb != nil {
					ed.FBias = fb[i]
				}
				out = append(out, ed)
			}
		}
	})
	return out
}
