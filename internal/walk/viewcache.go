package walk

import (
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// ViewSampler is the optional LiveEngine capability the hub caches are
// built on: versioned per-vertex view extraction with epoch validation
// (concurrent.Engine implements it). Engines without it simply run every
// hop through the locked Sample path, exactly as before the cache
// existed.
type ViewSampler interface {
	// ViewOf extracts a versioned immutable view of u's sampling state.
	ViewOf(u graph.VertexID) *core.VertexView
	// ValidateView reports whether a view still reflects its vertex's
	// current state (stable epoch, no mutation since extraction).
	ValidateView(vw *core.VertexView) bool
	// SampleOrView draws one sample under a single lock acquisition and,
	// when u's degree is at least minDegree, also extracts a view for
	// the caller to cache.
	SampleOrView(u graph.VertexID, minDegree int, r *xrand.RNG) (graph.VertexID, bool, *core.VertexView)
}

// Hub-cache sizes, shared by the in-process services and the daemons,
// and the admission default a zero fabric.CacheSpec.MinDegree resolves
// to.
const (
	// DefaultHubCacheSize is each crew walker's local view-LRU capacity.
	DefaultHubCacheSize = 256
	// DefaultHubMinDegree is the hub admission threshold: vertices below
	// this degree are sampled through the lock (the view copy would cost
	// more than it saves).
	DefaultHubMinDegree = 8
	// DefaultRemoteViewSize is the per-node remote-view cache capacity.
	DefaultRemoteViewSize = 512
	// DefaultViewRequestAfter is how many hand-offs a node observes
	// toward one non-owned vertex before it requests the owner's view.
	DefaultViewRequestAfter = 2
)

// viewCache is one walker's LRU of hot vertices' views. It is owned by a
// single goroutine (one per crew walker / pool walker), so it needs no
// locking; the views themselves are immutable and validated by epoch on
// every use. Eviction is exact LRU over an intrusive doubly-linked list
// threaded through a fixed slot array.
//
// Admission is churn-aware: a vertex whose cached views keep going stale
// before serving churnYoungHits lock-free hops (a writer rewrites it
// faster than walkers revisit it) earns strikes, and each strike doubles
// the number of cacheable extractions skipped before its next admission.
// Under hub-targeted write churn the O(degree) view copies otherwise
// cost more than the lock acquisitions they save; long-lived views clear
// their vertex's strikes and keep full admission.
type viewCache struct {
	minDeg     int
	slots      []viewSlot
	index      map[graph.VertexID]int
	free       []int
	head, tail int // most- / least-recently-used slot, -1 when empty

	// churn is the per-vertex admission back-off state.
	churn map[graph.VertexID]churnMark

	// ghost is the second-touch admission filter: the last capacity
	// missed vertices, as a set plus FIFO ring. A miss extracts a view
	// only on its second appearance within the window — one-shot
	// visitors (a diffuse walk frontier touching hub-sized vertices it
	// will never revisit) flow through the locked path instead of
	// churning the LRU with O(degree) view copies.
	ghost   map[graph.VertexID]struct{}
	ghostQ  []graph.VertexID
	ghostAt int

	// hits/stale are flushed into shared counters by the owner (misses
	// are derivable: every non-hit hop is a miss or an uncached sample).
	hits, stale int64
}

// churnMark is one vertex's admission back-off: strikes count young
// deaths, skipped counts extractions declined since the last admission.
type churnMark struct {
	strikes uint8
	skipped uint16
}

type viewSlot struct {
	v          graph.VertexID
	vw         *core.VertexView
	uses       int64 // lock-free hops this view served
	prev, next int
}

// newViewCache returns a cache with the given capacity
// (DefaultHubCacheSize outside unit tests) and hub-degree threshold (0
// selects the default). A nil cache is a valid "disabled" cache for
// every method.
func newViewCache(capacity, minDegree int) *viewCache {
	if minDegree <= 0 {
		minDegree = DefaultHubMinDegree
	}
	return &viewCache{
		minDeg: minDegree,
		slots:  make([]viewSlot, 0, capacity),
		index:  make(map[graph.VertexID]int, capacity),
		churn:  map[graph.VertexID]churnMark{},
		ghost:  make(map[graph.VertexID]struct{}, capacity),
		ghostQ: make([]graph.VertexID, 0, capacity),
		head:   -1,
		tail:   -1,
	}
}

// secondTouch reports whether a missed vertex has earned extraction (it
// already missed within the ghost window, so it is being revisited);
// otherwise it records the miss in the window.
func (c *viewCache) secondTouch(u graph.VertexID) bool {
	if _, ok := c.ghost[u]; ok {
		delete(c.ghost, u)
		return true
	}
	if len(c.ghostQ) < cap(c.ghostQ) {
		c.ghostQ = append(c.ghostQ, u)
	} else {
		delete(c.ghost, c.ghostQ[c.ghostAt])
		c.ghostQ[c.ghostAt] = u
		c.ghostAt = (c.ghostAt + 1) % len(c.ghostQ)
	}
	c.ghost[u] = struct{}{}
	return false
}

// admit reports whether a fresh view of u may enter the cache, charging
// one skipped extraction against u's back-off when not.
func (c *viewCache) admit(u graph.VertexID) bool {
	m, ok := c.churn[u]
	if !ok || m.strikes == 0 {
		return true
	}
	m.skipped++
	if m.skipped < 1<<m.strikes {
		c.churn[u] = m
		return false
	}
	m.skipped = 0
	c.churn[u] = m
	return true
}

// noteStale records a view of u dropped on epoch mismatch: a view that
// died before serving its keep earns a strike, a long-lived one clears
// the slate.
func (c *viewCache) noteStale(u graph.VertexID, uses int64) {
	if uses >= churnYoungHits {
		delete(c.churn, u)
		return
	}
	if len(c.churn) >= 4096 {
		c.churn = map[graph.VertexID]churnMark{}
	}
	m := c.churn[u]
	if m.strikes < churnMaxStrikes {
		m.strikes++
	}
	m.skipped = 0
	c.churn[u] = m
}

// get returns u's cached view (moving it to the front) or nil.
func (c *viewCache) get(u graph.VertexID) *core.VertexView {
	i, ok := c.index[u]
	if !ok {
		return nil
	}
	c.moveFront(i)
	return c.slots[i].vw
}

// put inserts or refreshes u's view, evicting the LRU slot when full.
func (c *viewCache) put(u graph.VertexID, vw *core.VertexView) {
	if i, ok := c.index[u]; ok {
		c.slots[i].vw = vw
		c.slots[i].uses = 0
		c.moveFront(i)
		return
	}
	var i int
	switch {
	case len(c.free) > 0:
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case len(c.slots) < cap(c.slots):
		c.slots = append(c.slots, viewSlot{})
		i = len(c.slots) - 1
	default:
		i = c.tail
		c.unlink(i)
		delete(c.index, c.slots[i].v)
	}
	c.slots[i] = viewSlot{v: u, vw: vw, prev: -1, next: c.head}
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
	c.index[u] = i
}

// drop removes u (a stale view); its slot returns to the free list.
func (c *viewCache) drop(u graph.VertexID) {
	i, ok := c.index[u]
	if !ok {
		return
	}
	c.unlink(i)
	delete(c.index, u)
	c.slots[i].vw = nil
	c.free = append(c.free, i)
}

func (c *viewCache) unlink(i int) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (c *viewCache) moveFront(i int) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.slots[i].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// sample draws one step at u through the cache: a cached, still-valid
// view samples lock-free; a stale view is dropped and the locked path
// refills the slot when u is hub-sized. A nil receiver (cache disabled,
// or engine without views) is the plain locked sample.
func (c *viewCache) sample(ve ViewSampler, e Engine, u graph.VertexID, r *xrand.RNG) (graph.VertexID, bool) {
	if c == nil || ve == nil {
		return e.Sample(u, r)
	}
	if i, ok := c.index[u]; ok {
		if vw := c.slots[i].vw; ve.ValidateView(vw) {
			c.hits++
			c.slots[i].uses++
			c.moveFront(i)
			return vw.Sample(r)
		}
		c.noteStale(u, c.slots[i].uses)
		c.drop(u)
		c.stale++
	}
	md := 0
	if c.secondTouch(u) {
		md = c.minDeg
	}
	v, ok, vw := ve.SampleOrView(u, md, r)
	if vw != nil && c.admit(u) {
		c.put(u, vw)
	}
	return v, ok
}

// hitView probes the cache for a still-valid view of u, charging the
// run's draws to the hit counters (a stale view is dropped and counted,
// exactly as the fill path expects to find it gone). A nil receiver (or
// engine without views) never hits; the caller then goes through
// fillBatch without having paid any per-slot work.
func (c *viewCache) hitView(ve ViewSampler, u graph.VertexID, draws int) *core.VertexView {
	if c == nil || ve == nil {
		return nil
	}
	i, ok := c.index[u]
	if !ok {
		return nil
	}
	if vw := c.slots[i].vw; ve.ValidateView(vw) {
		c.hits += int64(draws)
		c.slots[i].uses += int64(draws)
		c.moveFront(i)
		return vw
	}
	c.noteStale(u, c.slots[i].uses)
	c.drop(u)
	c.stale++
	return nil
}

// fillBatch is the batched miss path: one draw per slot for a whole run
// of walkers parked on u through the engine's batch cache-fill entry,
// under churn-aware admission. A nil receiver (cache disabled, or engine
// without views) is the plain locked batch, which consumes per-slot
// streams — that is the lockstep path. Callers probe hitView first: a
// cached valid view serves the entire run lock-free from the run's lead
// stream (view draws are distributional by contract, and one stream keeps
// the generator state resident across the run instead of fetching a
// scattered state line per slot — it also spares the miss path's RNG
// gather entirely). Only runs of at least denseMinRun walkers batch, and
// such a run is itself the revisit evidence the ghost filter exists to
// find, so it extracts on first touch.
func (c *viewCache) fillBatch(ve ViewSampler, be BatchSampler, u graph.VertexID, rs []*xrand.RNG, dst []graph.VertexID) bool {
	if c == nil || ve == nil {
		return be.SampleBatch(u, rs, dst)
	}
	ok, vw := be.SampleBatchOrView(u, c.minDeg, rs, dst)
	if vw != nil && c.admit(u) {
		c.put(u, vw)
	}
	return ok
}
