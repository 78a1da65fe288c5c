package walk

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
)

func vcView(u graph.VertexID) *core.VertexView { return &core.VertexView{Vertex: u} }

func testReply(v graph.VertexID, from int, applied int64, hub bool) *fabric.ViewReply {
	return &fabric.ViewReply{From: from, Vertex: v, Hub: hub, Applied: applied, View: core.VertexView{Vertex: v}}
}

// TestViewCacheLRU pins the cache's exact-LRU behavior: recency-ordered
// eviction at capacity, refresh-on-get, and slot reuse after drops.
func TestViewCacheLRU(t *testing.T) {
	c := newViewCache(3, 1)
	for u := graph.VertexID(1); u <= 3; u++ {
		c.put(u, vcView(u))
	}
	if c.get(1) == nil { // 1 becomes most recent
		t.Fatal("vertex 1 missing")
	}
	c.put(4, vcView(4)) // evicts 2, the LRU
	if c.get(2) != nil {
		t.Fatal("LRU vertex 2 survived eviction")
	}
	for _, u := range []graph.VertexID{1, 3, 4} {
		if vw := c.get(u); vw == nil || vw.Vertex != u {
			t.Fatalf("vertex %d missing or wrong after eviction: %+v", u, vw)
		}
	}

	// Dropping frees a slot that the next put reuses without eviction.
	c.drop(3)
	if c.get(3) != nil {
		t.Fatal("dropped vertex 3 still cached")
	}
	c.put(5, vcView(5))
	for _, u := range []graph.VertexID{1, 4, 5} {
		if c.get(u) == nil {
			t.Fatalf("vertex %d lost after drop/reuse", u)
		}
	}
	if len(c.index) != 3 {
		t.Fatalf("index holds %d entries at capacity 3", len(c.index))
	}

	// Repeated drops must not corrupt the free list.
	c.drop(1)
	c.drop(1)
	c.drop(4)
	c.put(6, vcView(6))
	c.put(7, vcView(7))
	for _, u := range []graph.VertexID{5, 6, 7} {
		if c.get(u) == nil {
			t.Fatalf("vertex %d missing after drop-heavy sequence", u)
		}
	}

	// Refreshing an existing key replaces in place.
	fresh := vcView(7)
	fresh.Epoch = 42
	c.put(7, fresh)
	if vw := c.get(7); vw == nil || vw.Epoch != 42 {
		t.Fatalf("refresh did not replace the cached view: %+v", c.get(7))
	}
	if len(c.slots) > 3 {
		t.Fatalf("cache grew past its capacity: %d slots", len(c.slots))
	}
}

// TestRemoteViewsWatermarks pins the fabric-side cache's invalidation
// rule: a view from shard o survives exactly while its Applied stamp
// covers the latest watermark for o; installs of already-stale replies
// are rejected; the not-a-hub negative cache resets on advance.
func TestRemoteViewsWatermarks(t *testing.T) {
	rv := newRemoteViews(2, 4)

	// Request policy: second crossing triggers, in-flight dedupes.
	if rv.noteCrossing(9) {
		t.Fatal("first crossing requested a view (DefaultViewRequestAfter=2)")
	}
	if !rv.noteCrossing(9) {
		t.Fatal("second crossing did not request a view")
	}
	if rv.noteCrossing(9) {
		t.Fatal("in-flight request did not dedupe")
	}

	if !rv.install(testReply(9, 1, 10, true)) {
		t.Fatal("fresh reply rejected")
	}
	if vw, stale := rv.get(9); vw == nil || stale {
		t.Fatalf("installed view not served: vw=%v stale=%v", vw, stale)
	}

	// Watermark advance for shard 1 past the stamp kills the view.
	rv.advance([]int64{0, 11})
	if vw, _ := rv.get(9); vw != nil {
		t.Fatal("view survived a watermark past its Applied stamp")
	}

	// A reply staler than the known watermark is rejected on install,
	// and a not-a-hub reply never installs.
	rv.advance([]int64{0, 11}) // clears the notHub set too
	if rv.install(testReply(9, 1, 5, true)) {
		t.Fatal("stale reply survived install-time watermark check")
	}
	if !rv.install(testReply(9, 1, 11, true)) {
		t.Fatal("current reply rejected")
	}
	if vw, _ := rv.get(9); vw == nil {
		t.Fatal("current view not served")
	}
	// Watermarks never regress.
	rv.advance([]int64{0, 3})
	if vw, _ := rv.get(9); vw == nil {
		t.Fatal("a stale (lower) watermark vector invalidated a current view")
	}
}
