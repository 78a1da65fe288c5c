package core

// Targeted tests for the sparse-group representation, which only arises on
// higher-degree vertices (|G| < β%·d with |G| > 1) and therefore deserves
// its own exercises beyond the randomized fuzzers.

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// buildSparseVertex creates vertex 0 with 200 bias-1 edges and 6 bias-2
// edges: the bit-1 group holds 6/206 ≈ 2.9% < β → sparse.
func buildSparseVertex(t *testing.T) (*Sampler, []graph.VertexID) {
	t.Helper()
	s, err := New(300, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := s.Insert(0, graph.VertexID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	heavy := make([]graph.VertexID, 0, 6)
	for i := 201; i <= 206; i++ {
		if err := s.Insert(0, graph.VertexID(i), 2); err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, graph.VertexID(i))
	}
	return s, heavy
}

func sparseGroupOf(t *testing.T, s *Sampler, u graph.VertexID) *group {
	t.Helper()
	vx := &s.vx[u]
	for i := range vx.groups {
		if vx.groups[i].kind == KindSparse {
			return &vx.groups[i]
		}
	}
	t.Fatal("no sparse group present")
	return nil
}

func TestSparseGroupForms(t *testing.T) {
	s, _ := buildSparseVertex(t)
	g := sparseGroupOf(t, s, 0)
	if g.count != 6 {
		t.Errorf("sparse group count %d, want 6", g.count)
	}
	if g.ix.sinv.Len() != 6 {
		t.Errorf("sparse hash index holds %d, want 6", g.ix.sinv.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Memory claim: the sparse index must be far smaller than a d-sized
	// regular inverted index would be.
	if g.ix.sinv.Footprint() >= int64(s.Degree(0))*4 {
		t.Errorf("sparse index %dB not smaller than regular %dB",
			g.ix.sinv.Footprint(), s.Degree(0)*4)
	}
}

func TestSparseGroupStreamingOps(t *testing.T) {
	s, heavy := buildSparseVertex(t)
	// Delete a sparse-group member (exercises sinv delete-and-swap).
	if err := s.Delete(0, heavy[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete a *light* edge whose adjacency swap moves a heavy edge into
	// its slot (exercises sinv rename). Repeat enough times that a heavy
	// tail element is moved with high probability.
	r := xrand.New(4)
	for k := 0; k < 50; k++ {
		dst := s.Neighbor(0, int32(r.Intn(s.Degree(0))))
		if err := s.Delete(0, dst); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	// Distribution still matches adjacency.
	want := map[graph.VertexID]float64{}
	total := s.TotalBias(0)
	for i := 0; i < s.Degree(0); i++ {
		want[s.adjs.Dst(0, int32(i))] += float64(s.adjs.Bias(0, int32(i))) / total
	}
	checkVertexDistribution(t, s, 0, want, 120000)
}

func TestSparseGroupBatchDeletes(t *testing.T) {
	s, heavy := buildSparseVertex(t)
	var ups []graph.Update
	for _, h := range heavy[:3] {
		ups = append(ups, graph.Update{Op: graph.OpDelete, Src: 0, Dst: h})
	}
	// Plus a slab of light deletions to force two-phase movement around
	// the sparse members.
	for i := 1; i <= 40; i++ {
		ups = append(ups, graph.Update{Op: graph.OpDelete, Src: 0, Dst: graph.VertexID(i)})
	}
	res, err := s.ApplyBatch(ups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 43 {
		t.Fatalf("deleted %d, want 43", res.Deleted)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, h := range heavy[:3] {
		if s.HasEdge(0, h) {
			t.Errorf("heavy edge %d survived", h)
		}
	}
	for _, h := range heavy[3:] {
		if !s.HasEdge(0, h) {
			t.Errorf("heavy edge %d lost", h)
		}
	}
}

func TestSparseToOneElementCollapse(t *testing.T) {
	s, heavy := buildSparseVertex(t)
	// Remove heavy members until one remains: sparse → one-element.
	for _, h := range heavy[:5] {
		if err := s.Delete(0, h); err != nil {
			t.Fatal(err)
		}
	}
	vx := &s.vx[0]
	foundOne := false
	for i := range vx.groups {
		if vx.groups[i].kind == KindSparse {
			t.Error("sparse group did not collapse")
		}
		if vx.groups[i].kind == KindOne {
			foundOne = true
		}
	}
	if !foundOne {
		t.Error("no one-element group after collapse")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseGrowsToRegular(t *testing.T) {
	s, _ := buildSparseVertex(t)
	// Add heavy edges until the bit-1 ratio exceeds β/hysteresis: the
	// sparse group must convert to regular (or beyond) without loss.
	for i := 230; i < 280; i++ {
		if err := s.Insert(0, graph.VertexID(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	vx := &s.vx[0]
	for i := range vx.groups {
		if vx.groups[i].kind == KindSparse {
			// ratio = 56/256 ≈ 22% — far above β; must have converted.
			t.Errorf("group %d still sparse at high ratio", vx.groups[i].gid)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
