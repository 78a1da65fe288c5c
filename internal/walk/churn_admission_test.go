package walk

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// TestRemoteViewsChurnBackoff drives the fabric-side cache with a churn
// tape — every installed view is invalidated by a watermark before it
// serves a single hop — and asserts the admission back-off caps the
// request traffic at a small fraction of the no-backoff baseline (one
// request per DefaultViewRequestAfter crossings), which is the mechanism that
// erases the measured hub-targeted-churn regression.
func TestRemoteViewsChurnBackoff(t *testing.T) {
	rv := newRemoteViews(2, 16)
	const tape = 2000
	requests := 0
	wm := int64(0)
	for i := 0; i < tape; i++ {
		if rv.noteCrossing(7) {
			requests++
			if !rv.install(testReply(7, 1, wm, true)) {
				t.Fatalf("crossing %d: fresh install rejected", i)
			}
			// Hub-targeted write churn: the view dies before any hit.
			wm++
			rv.advance([]int64{0, wm})
		}
	}
	// Without back-off: tape/DefaultViewRequestAfter = 1000 requests. With strikes
	// doubling the threshold up to the cap: 2+4+…+2<<6, then one per
	// 128 crossings — a couple dozen.
	if requests >= tape/10 {
		t.Fatalf("%d view requests under churn; back-off absent (baseline %d)", requests, tape/2)
	}
	if requests < 3 {
		t.Fatalf("only %d requests — probing stopped entirely", requests)
	}
	if rv.strikes[7] != churnMaxStrikes {
		t.Fatalf("strikes %d, want cap %d", rv.strikes[7], churnMaxStrikes)
	}

	// Redemption: a view that serves its keep clears the slate.
	for !rv.noteCrossing(7) {
	}
	if !rv.install(testReply(7, 1, wm, true)) {
		t.Fatal("reinstall rejected")
	}
	for h := 0; h < churnYoungHits; h++ {
		if vw, _ := rv.get(7); vw == nil {
			t.Fatal("long-lived view vanished")
		}
	}
	wm++
	rv.advance([]int64{0, wm})
	if _, ok := rv.strikes[7]; ok {
		t.Fatal("a long-lived view did not clear its vertex's strikes")
	}
	// Back to the base threshold: the second crossing requests again.
	rv.noteCrossing(7)
	if !rv.noteCrossing(7) {
		t.Fatal("request threshold did not reset after redemption")
	}
}

// TestRemoteViewsRefuseNonOwnerReply pins the ownership check on
// installs: once a liveness flip re-chains a vertex's block to another
// shard, a straggler reply from the old owner is refused — hub or not,
// so a stale "not a hub" answer cannot suppress requests toward the new
// owner — and the new owner's reply installs.
func TestRemoteViewsRefuseNonOwnerReply(t *testing.T) {
	rv := newRemoteViews(2, 16)
	owner := 1
	rv.ownerOf = func(v graph.VertexID) int { return owner }

	if !rv.install(testReply(9, 1, 0, true)) {
		t.Fatal("install from the owner failed")
	}
	rv.dropAll() // the flip's wholesale invalidation
	owner = 0
	if rv.install(testReply(9, 1, 100, true)) {
		t.Fatal("reply from the block's old owner installed")
	}
	if rv.install(testReply(12, 1, 0, false)) || rv.notHub[12] {
		t.Fatal("old owner's not-a-hub answer entered the negative cache")
	}
	if !rv.install(testReply(9, 0, 0, true)) {
		t.Fatal("reply from the new owner rejected")
	}
	if vw, _ := rv.get(9); vw == nil {
		t.Fatal("new owner's view not served")
	}
}

// churnEngine is a minimal ViewSampler + Engine whose every vertex is a
// hub and whose epoch the test bumps to simulate writer churn.
type churnEngine struct {
	epoch uint64
}

func (f *churnEngine) Sample(u graph.VertexID, r *xrand.RNG) (graph.VertexID, bool) { return u, true }
func (f *churnEngine) Degree(graph.VertexID) int                                    { return 64 }
func (f *churnEngine) HasEdge(u, dst graph.VertexID) bool                           { return false }
func (f *churnEngine) NumVertices() int                                             { return 1 }
func (f *churnEngine) ViewOf(u graph.VertexID) *core.VertexView {
	return &core.VertexView{Vertex: u, Epoch: f.epoch}
}
func (f *churnEngine) ValidateView(vw *core.VertexView) bool { return vw.Epoch == f.epoch }
func (f *churnEngine) SampleOrView(u graph.VertexID, minDegree int, r *xrand.RNG) (graph.VertexID, bool, *core.VertexView) {
	return u, true, &core.VertexView{Vertex: u, Epoch: f.epoch}
}

// TestViewCacheChurnBackoff drives a walker's local view LRU with the
// same churn tape shape: the cached vertex's stripe mutates between
// every pair of hops, so every admitted view is found stale on its next
// use. The back-off must collapse the admit/stale cycle to a trickle
// while still sampling correctly, and a stable stretch must clear the
// strikes.
func TestViewCacheChurnBackoff(t *testing.T) {
	ve := &churnEngine{}
	c := newViewCache(8, 1)
	r := xrand.New(1)
	const tape = 1000
	for i := 0; i < tape; i++ {
		if _, ok := c.sample(ve, ve, 5, r); !ok {
			t.Fatal("sample failed")
		}
		ve.epoch++ // writer touches the vertex after every hop
	}
	// Every stale observation is one wasted admission; without back-off
	// there is one per tape step.
	if c.stale >= tape/10 {
		t.Fatalf("%d stale drops under churn; admission back-off absent", c.stale)
	}
	if c.churn[5].strikes != churnMaxStrikes {
		t.Fatalf("strikes %d, want cap %d", c.churn[5].strikes, churnMaxStrikes)
	}

	// A stable stretch: the view gets admitted eventually, serves well
	// past churnYoungHits, and the next (single) invalidation clears the
	// strikes instead of deepening them.
	for i := 0; i < 4096; i++ {
		c.sample(ve, ve, 5, r)
	}
	if c.hits == 0 {
		t.Fatal("no lock-free hits in the stable stretch")
	}
	ve.epoch++
	c.sample(ve, ve, 5, r) // observes the stale view, notes a seasoned death
	if _, ok := c.churn[5]; ok {
		t.Fatal("a long-lived view did not clear its vertex's strikes")
	}
}
