package concurrent

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

func newViewTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(16, core.DefaultConfig(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for dst := graph.VertexID(1); dst <= 8; dst++ {
		if err := e.Insert(0, dst, uint64(dst)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestViewEpochValidation pins the invalidation contract: a freshly
// extracted view validates, and every mutation class on the vertex's
// stripe — Insert, Delete, UpdateBias, ApplyBatch — invalidates it.
func TestViewEpochValidation(t *testing.T) {
	mutate := map[string]func(e *Engine) error{
		"insert": func(e *Engine) error { return e.Insert(0, 9, 3) },
		"delete": func(e *Engine) error { return e.Delete(0, 1) },
		"update": func(e *Engine) error { return e.UpdateBias(0, 2, 77) },
		"batch": func(e *Engine) error {
			_, err := e.ApplyBatch([]graph.Update{{Op: graph.OpInsert, Src: 0, Dst: 10, Bias: 4}})
			return err
		},
	}
	for name, fn := range mutate {
		t.Run(name, func(t *testing.T) {
			e := newViewTestEngine(t)
			vw := e.ViewOf(0)
			if vw.Epoch&1 != 0 {
				t.Fatalf("extracted view carries a busy epoch %d", vw.Epoch)
			}
			if !e.ValidateView(vw) {
				t.Fatal("fresh view does not validate")
			}
			if err := fn(e); err != nil {
				t.Fatal(err)
			}
			if e.ValidateView(vw) {
				t.Fatal("view still validates after a mutation on its stripe")
			}
		})
	}
}

// TestViewSurvivesUnrelatedWrites pins the per-vertex grain of view
// validation: writes to other vertices — wherever they hash, one batch
// writing several rows of their stripe included — must NOT invalidate a
// cached view, while a stop-the-world event (growth, Quiesce) retires
// every view via the generation. This is the property that keeps hub
// caches alive under sustained non-hub ingest.
func TestViewSurvivesUnrelatedWrites(t *testing.T) {
	e := newViewTestEngine(t)
	vw := e.ViewOf(0)
	if !e.ValidateView(vw) {
		t.Fatal("fresh view does not validate")
	}
	// Hammer every other in-space vertex with all three write classes.
	for u := graph.VertexID(1); u < 16; u++ {
		if err := e.Insert(u, (u+1)%16, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.UpdateBias(1, 2, 9); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyBatch([]graph.Update{{Op: graph.OpInsert, Src: 7, Dst: 3, Bias: 2}}); err != nil {
		t.Fatal(err)
	}
	if !e.ValidateView(vw) {
		t.Fatal("writes to unrelated vertices invalidated a cached view")
	}
	batchSharingOneStripe(t)
	// A stop-the-world event retires the generation: everything drops.
	e.Quiesce(func(*core.Sampler) {})
	if e.ValidateView(vw) {
		t.Fatal("view survived a stop-the-world generation bump")
	}
	// Growth (insert referencing an out-of-space vertex) likewise.
	vw2 := e.ViewOf(0)
	if !e.ValidateView(vw2) {
		t.Fatal("re-extracted view does not validate")
	}
	if err := e.Insert(20, 21, 1); err != nil {
		t.Fatal(err)
	}
	if e.ValidateView(vw2) {
		t.Fatal("view survived vertex-space growth")
	}
}

// batchSharingOneStripe applies one batch with several runs on one stripe,
// which the stripe-major apply writes under a single lock bracket: views
// of the rows it rewrote fail, and views of the stripe's other vertices
// still validate.
func batchSharingOneStripe(t *testing.T) {
	t.Helper()
	const n = 32
	e, err := New(n, core.DefaultConfig(), Config{Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var same []graph.VertexID // vertices on vertex 0's stripe
	for u := graph.VertexID(0); u < n; u++ {
		if err := e.Insert(u, (u+1)%n, 1); err != nil {
			t.Fatal(err)
		}
		if e.stripeIndex(u) == e.stripeIndex(0) {
			same = append(same, u)
		}
	}
	if len(same) < 4 {
		t.Fatalf("only %d of %d vertices on one of 4 stripes", len(same), n)
	}
	touched, untouched := same[:len(same)/2], same[len(same)/2:]
	views := map[graph.VertexID]*core.VertexView{}
	for _, u := range same {
		views[u] = e.ViewOf(u)
	}
	var ups []graph.Update
	for _, u := range touched {
		ups = append(ups, graph.Update{Op: graph.OpInsert, Src: u, Dst: (u + 2) % n, Bias: 5})
	}
	for u := graph.VertexID(0); u < n; u++ {
		if e.stripeIndex(u) != e.stripeIndex(0) {
			ups = append(ups, graph.Update{Op: graph.OpDelete, Src: u, Dst: (u + 1) % n})
		}
	}
	if _, err := e.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	for _, u := range touched {
		if e.ValidateView(views[u]) {
			t.Errorf("view of vertex %d survived the batch that rewrote its row", u)
		}
	}
	for _, u := range untouched {
		if !e.ValidateView(views[u]) {
			t.Errorf("view of vertex %d, untouched on a stripe the batch wrote, was invalidated", u)
		}
	}
}

// TestSampleOrView checks the single-acquisition cache-fill path: below
// the degree threshold it behaves as a plain sample; at or above it the
// returned view is stamped, validates, and samples the same distribution.
func TestSampleOrView(t *testing.T) {
	e := newViewTestEngine(t)
	r := xrand.New(5)

	if _, ok, vw := e.SampleOrView(0, 100, r); !ok || vw != nil {
		t.Fatalf("degree 8 below threshold 100: ok=%v view=%v", ok, vw)
	}
	if _, ok, vw := e.SampleOrView(0, 0, r); !ok || vw != nil {
		t.Fatalf("minDegree 0 must never extract: ok=%v view=%v", ok, vw)
	}
	v, ok, vw := e.SampleOrView(0, 4, r)
	if !ok || vw == nil {
		t.Fatalf("degree 8 at threshold 4: ok=%v view=%v", ok, vw)
	}
	if v == 0 || v > 8 {
		t.Fatalf("sampled %d, not a neighbor", v)
	}
	if vw.Vertex != 0 || vw.Degree() != 8 {
		t.Fatalf("view %+v does not describe vertex 0", vw)
	}
	if !e.ValidateView(vw) {
		t.Fatal("fresh SampleOrView view does not validate")
	}

	// Edgeless vertex: no sample, no view.
	if _, ok, vw := e.SampleOrView(15, 1, r); ok || vw != nil {
		t.Fatalf("edgeless vertex: ok=%v view=%v", ok, vw)
	}
}

// TestViewConcurrentSampling hammers view extraction, validation, and
// lock-free sampling against a writer (run under -race to make the point).
func TestViewConcurrentSampling(t *testing.T) {
	e := newViewTestEngine(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dst := graph.VertexID(9 + i%4)
			if err := e.Insert(0, dst, 2); err != nil {
				t.Error(err)
				return
			}
			if err := e.Delete(0, dst); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		r := xrand.New(uint64(w) + 1)
		for i := 0; i < 2000; i++ {
			vw := e.ViewOf(0)
			if !e.ValidateView(vw) {
				continue // writer got in between; view discarded
			}
			if _, ok := vw.Sample(r); !ok {
				t.Fatal("validated view of a populated vertex has no mass")
			}
		}
	}
	close(stop)
	<-done
}

// TestSharedViewDedup pins the extraction-dedup contract: repeated
// extractions of an unchanged vertex return the same immutable view
// object (concurrent walkers share one O(degree) snapshot instead of
// copying it per caller), and any write to the vertex retires the slot
// so the next extraction publishes a fresh snapshot.
func TestSharedViewDedup(t *testing.T) {
	e := newViewTestEngine(t)
	vw := e.ViewOf(0)
	if again := e.ViewOf(0); again != vw {
		t.Fatal("second extraction of an unchanged vertex did not dedup")
	}
	r := xrand.New(1)
	if _, ok, cached := e.SampleOrView(0, 2, r); !ok || cached != vw {
		t.Fatal("SampleOrView did not return the shared view")
	}
	rs := []*xrand.RNG{xrand.New(2), xrand.New(3)}
	dst := make([]graph.VertexID, 2)
	if ok, cached := e.SampleBatchOrView(0, 2, rs, dst); !ok || cached != vw {
		t.Fatal("SampleBatchOrView did not return the shared view")
	}
	if err := e.Insert(0, 9, 5); err != nil {
		t.Fatal(err)
	}
	fresh := e.ViewOf(0)
	if fresh == vw {
		t.Fatal("extraction after a write returned the retired view")
	}
	if !e.ValidateView(fresh) || e.ValidateView(vw) {
		t.Fatal("validation does not separate fresh from retired view")
	}
	if fresh.Degree() != vw.Degree()+1 {
		t.Fatalf("fresh view degree %d, want %d", fresh.Degree(), vw.Degree()+1)
	}
}
