package walk

import (
	"sync"
	"sync/atomic"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
)

// remoteViews is a shard node's cache of peer-owned hub views — the
// fabric-side cache layer that lets a crew serve a hop at a vertex this
// shard does not own instead of handing the walker off.
//
// Consistency is watermark-based: the coordinator piggybacks its
// per-shard routed-update ledger on every ingest element, and a cached
// view from shard o is served only while its Applied stamp (the owner's
// cumulative applied-update count at extraction) is at least the latest
// watermark this node has seen for o. Routed counts run ahead of applied
// counts, so the check only ever drops views early — after a Sync
// barrier (whose token carries the final ledger and precedes the ack
// that completes the Sync), every surviving view reflects all updates
// the barrier covers. Between barriers a view can trail in-flight ingest
// by at most the watermark propagation delay, the same freshness class
// as a walker hand-off racing the feed.
//
// A reply is installed only when its sender is the vertex's *current*
// owner (ownerOf): after a liveness flip re-chains a block to another
// replica, a straggler reply from the old owner would carry a stamp
// measured against the wrong shard's watermark.
//
// Churn-aware admission: a vertex whose views keep dying young — pruned
// by a watermark before serving churnYoungHits hops — earns strikes, and
// each strike doubles the hand-off count required before this node
// requests its view again. Under hub-targeted write churn the
// fetch/invalidate cycle otherwise costs more than the hand-offs it
// saves (the measured −41% regression); the exponential back-off caps
// that spend at a vanishing fraction while long-lived views (which clear
// strikes on every durable stint) keep the full benefit.
type remoteViews struct {
	capacity int

	// ownerOf resolves a vertex's current owner (set by the shard node;
	// nil skips the ownership check — unit tests and static plans).
	ownerOf func(graph.VertexID) int

	mu        sync.RWMutex
	views     map[graph.VertexID]*remoteEntry
	order     []orderKey // FIFO eviction order (install sequence)
	seq       uint64     // install sequence counter
	wm        []int64    // latest per-shard routed-update watermark
	crossings map[graph.VertexID]int
	inflight  map[graph.VertexID]bool
	notHub    map[graph.VertexID]bool
	strikes   map[graph.VertexID]uint8 // churn strikes (admission back-off)
}

type remoteEntry struct {
	vw      *core.VertexView
	from    int
	applied int64
	seq     uint64
	hits    atomic.Int64 // hops served (bumped under the read lock)
}

// orderKey names one install in the eviction queue. The sequence number
// disambiguates re-installs: an entry pruned (watermarks) or dropped
// (stale get) and installed again gets a fresh key, so popping a stale
// key never evicts the fresh view and dead keys are skipped cheaply.
type orderKey struct {
	v   graph.VertexID
	seq uint64
}

// Churn-admission constants.
const (
	// churnYoungHits is the served-hop count below which an invalidated
	// view counts as having died young (the fetch did not pay for
	// itself).
	churnYoungHits = 8
	// churnMaxStrikes caps the admission back-off exponent: at most
	// DefaultViewRequestAfter << churnMaxStrikes crossings before
	// re-requesting.
	churnMaxStrikes = 6
)

// newRemoteViews returns a remote-view cache holding at most capacity
// views (DefaultRemoteViewSize outside unit tests).
func newRemoteViews(shards, capacity int) *remoteViews {
	return &remoteViews{
		capacity:  capacity,
		views:     map[graph.VertexID]*remoteEntry{},
		wm:        make([]int64, shards),
		crossings: map[graph.VertexID]int{},
		inflight:  map[graph.VertexID]bool{},
		notHub:    map[graph.VertexID]bool{},
		strikes:   map[graph.VertexID]uint8{},
	}
}

// get returns u's cached view if it is still valid under the current
// watermarks; stale reports a cached-but-invalidated entry (pruned).
func (rv *remoteViews) get(u graph.VertexID) (vw *core.VertexView, stale bool) {
	rv.mu.RLock()
	e, ok := rv.views[u]
	valid := ok && e.applied >= rv.wm[e.from]
	if valid {
		vw = e.vw
		e.hits.Add(1)
	}
	rv.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if !valid {
		rv.mu.Lock()
		if e2, ok2 := rv.views[u]; ok2 && e2.applied < rv.wm[e2.from] {
			rv.noteDeath(u, e2)
			delete(rv.views, u)
		}
		rv.mu.Unlock()
		return nil, true
	}
	return vw, false
}

// noteDeath records one invalidation for the churn back-off (mu held).
// Views that died young earn a strike; views that served their keep
// clear the slate.
func (rv *remoteViews) noteDeath(u graph.VertexID, e *remoteEntry) {
	if e.hits.Load() < churnYoungHits {
		if len(rv.strikes) >= 8192 {
			rv.strikes = map[graph.VertexID]uint8{}
		}
		if rv.strikes[u] < churnMaxStrikes {
			rv.strikes[u]++
		}
	} else {
		delete(rv.strikes, u)
	}
}

// noteCrossing records one walker hand-off toward non-owned vertex u and
// reports whether the node should request u's view from its owner now.
// A vertex with churn strikes needs exponentially more crossings.
func (rv *remoteViews) noteCrossing(u graph.VertexID) bool {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.notHub[u] || rv.inflight[u] {
		return false
	}
	if _, cached := rv.views[u]; cached {
		return false
	}
	rv.crossings[u]++
	if rv.crossings[u] < DefaultViewRequestAfter<<rv.strikes[u] {
		return false
	}
	delete(rv.crossings, u)
	if len(rv.crossings) > 8192 {
		// Unbounded cold-tail growth guard; counts restart, which only
		// delays requests.
		rv.crossings = map[graph.VertexID]int{}
	}
	rv.inflight[u] = true
	return true
}

// install stores a peer's reply. It returns false when the reply was
// rejected (not a hub, already stale under the current watermarks, or
// sent by a shard that no longer owns the vertex).
func (rv *remoteViews) install(rp *fabric.ViewReply) bool {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	delete(rv.inflight, rp.Vertex)
	if rv.ownerOf != nil && rv.ownerOf(rp.Vertex) != rp.From {
		// A straggler from the block's previous owner — checked before
		// the Hub branch on purpose: a Hub=false answer from a shard that
		// no longer owns the vertex says nothing about the current owner,
		// and recording it in the negative cache would suppress requests
		// toward that owner until the cache's wholesale reset.
		return false
	}
	if !rp.Hub {
		if len(rv.notHub) >= 8192 {
			// The sub-hub tail dominates scale-free graphs and a
			// query-only session never advances watermarks (the other
			// clearing path), so the negative cache needs its own bound;
			// clearing merely re-allows requests.
			rv.notHub = map[graph.VertexID]bool{}
		}
		rv.notHub[rp.Vertex] = true
		return false
	}
	if rp.Applied < rv.wm[rp.From] {
		return false
	}
	if _, ok := rv.views[rp.Vertex]; !ok {
		for len(rv.views) >= rv.capacity && len(rv.order) > 0 {
			victim := rv.order[0]
			rv.order = rv.order[1:]
			if cur, live := rv.views[victim.v]; live && cur.seq == victim.seq {
				delete(rv.views, victim.v)
			} // else: a dead key (pruned or re-installed since), skip
		}
	}
	rv.seq++
	vw := rp.View
	rv.views[rp.Vertex] = &remoteEntry{vw: &vw, from: rp.From, applied: rp.Applied, seq: rv.seq}
	rv.order = append(rv.order, orderKey{rp.Vertex, rv.seq})
	return true
}

// clearInflight drops u's in-flight request marker (request send
// failed; a later crossing may retry).
func (rv *remoteViews) clearInflight(u graph.VertexID) {
	rv.mu.Lock()
	delete(rv.inflight, u)
	rv.mu.Unlock()
}

// dropAll purges the entire cache — views, crossing counts, in-flight
// markers, negative entries. A shard-liveness flip re-chains ownership of
// whole block families at once (everything the dead shard based, or
// everything a rejoined shard reclaims), so per-block surgery would have
// to walk every block anyway; wholesale reset is the simple conservative
// move. Strikes are kept: failover is not hub churn.
func (rv *remoteViews) dropAll() {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.views = map[graph.VertexID]*remoteEntry{}
	rv.order = nil
	rv.crossings = map[graph.VertexID]int{}
	rv.inflight = map[graph.VertexID]bool{}
	rv.notHub = map[graph.VertexID]bool{}
}

// advance folds a piggybacked watermark vector in, pruning every view
// the new ledger invalidates, and clears the not-a-hub negative cache
// (growth can promote a vertex to hub status).
func (rv *remoteViews) advance(wms []int64) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	changed := false
	for i := 0; i < len(wms) && i < len(rv.wm); i++ {
		if wms[i] > rv.wm[i] {
			rv.wm[i] = wms[i]
			changed = true
		}
	}
	if !changed {
		return
	}
	for u, e := range rv.views {
		if e.applied < rv.wm[e.from] {
			rv.noteDeath(u, e)
			delete(rv.views, u)
		}
	}
	// Compact the eviction queue to the keys still naming live installs
	// — pruning otherwise grows it without bound under churn.
	live := rv.order[:0]
	for _, k := range rv.order {
		if cur, ok := rv.views[k.v]; ok && cur.seq == k.seq {
			live = append(live, k)
		}
	}
	rv.order = live
	if len(rv.notHub) > 0 {
		rv.notHub = map[graph.VertexID]bool{}
	}
	// A new watermark epoch also re-opens requests: an in-flight marker
	// whose reply was lost must not exclude its vertex forever.
	if len(rv.inflight) > 0 {
		rv.inflight = map[graph.VertexID]bool{}
	}
}
