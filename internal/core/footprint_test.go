package core

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
)

// TestRecordSizes guards the compact per-vertex record: a group header
// holds only what Sample reads plus one index pointer, and a vertex holds
// the group and bucket slices, the total, and a decimal-group pointer.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(group{}); got > 48 {
		t.Errorf("group is %d B, budget 48", got)
	}
	if got := unsafe.Sizeof(vertex{}); got > 80 {
		t.Errorf("vertex is %d B, budget 80", got)
	}
}

// TestFootprintMatchesHeap checks the accounting from both sides: the
// per-structure breakdown adds up to exactly Footprint, and Footprint is
// within ±10% of the live heap that building the sampler and running a
// mixed tape through it actually retained — so a layout cannot shrink the
// metric by counting less instead of allocating less.
func TestFootprintMatchesHeap(t *testing.T) {
	ds, err := gen.DatasetByAbbr("LJ")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Generate(0.004, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.BuildWorkload(g, gen.UpdMixed, 2000, 6, 43)
	if err != nil {
		t.Fatal(err)
	}
	batches := w.Batches()
	cfg := DefaultConfig()
	cfg.Workers = 2

	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	check := func(stage string, s *Sampler, base int64) {
		t.Helper()
		grown := heap() - base
		fp := s.Footprint()
		if fb := s.CollectFootprint(); fb.Total != fp {
			t.Errorf("%s: CollectFootprint().Total = %d, Footprint() = %d", stage, fb.Total, fp)
		}
		ratio := float64(fp) / float64(grown)
		t.Logf("%s: Footprint %d B, heap growth %d B, ratio %.3f (%.1f B/edge)",
			stage, fp, grown, ratio, float64(fp)/float64(s.NumEdges()))
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: Footprint / heap growth = %.3f, want within ±10%%", stage, ratio)
		}
	}

	base := heap()
	s, err := NewFromCSR(w.Initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("build", s, base)
	for i, b := range batches {
		if i%2 == 0 {
			_, err = s.ApplyBatch(b)
		} else {
			err = s.ApplyUpdatesStreaming(b)
		}
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	for u := graph.VertexID(0); u < 64; u++ {
		if s.Degree(u) > 0 {
			if err := s.UpdateBias(u, s.Neighbor(u, 0), 7); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after tape", s, base)
	runtime.KeepAlive(w)
	runtime.KeepAlive(batches)
}
