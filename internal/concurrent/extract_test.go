package concurrent_test

import (
	"sort"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

type xEdge struct {
	src, dst graph.VertexID
	bias     uint64
	fbias    float64
}

func dumpSorted(e *concurrent.Engine) []xEdge {
	var out []xEdge
	for _, ed := range e.DumpEdges() {
		out = append(out, xEdge{ed.Src, ed.Dst, ed.Bias, ed.FBias})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.bias != b.bias {
			return a.bias < b.bias
		}
		return a.fbias < b.fbias
	})
	return out
}

// TestExtractRangeRoundTrip pins the extraction invariant: an extracted
// range's rows, installed into a second engine, reproduce the exact edge
// multiset — and the source engine no longer holds any of them, so the
// two engines' dumps union to the pre-extraction multiset.
func TestExtractRangeRoundTrip(t *testing.T) {
	for _, mode := range []string{"int", "float"} {
		t.Run(mode, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.FloatBias = mode == "float"
			donor, err := concurrent.New(256, cfg, concurrent.Config{})
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(0xE0)
			var ups []graph.Update
			for i := 0; i < 3000; i++ {
				up := graph.Update{
					Op:  graph.OpInsert,
					Src: graph.VertexID(r.Intn(256)),
					Dst: graph.VertexID(r.Intn(256)),
				}
				if cfg.FloatBias {
					up.Bias = uint64(1 + r.Intn(50))
					up.FBias = float64(r.Intn(4)) * 0.25
				} else {
					up.Bias = uint64(1 + r.Intn(1000))
				}
				ups = append(ups, up)
			}
			if err := donor.ApplyUpdates(ups); err != nil {
				t.Fatal(err)
			}
			before := dumpSorted(donor)
			edgesBefore := donor.NumEdges()

			const lo, hi = 64, 128
			rows, err := donor.ExtractRange(lo, hi)
			if err != nil {
				t.Fatalf("ExtractRange: %v", err)
			}
			// The donor holds nothing in the range anymore, and its edge
			// counter reconciles.
			for v := graph.VertexID(lo); v < hi; v++ {
				if d := donor.Degree(v); d != 0 {
					t.Fatalf("vertex %d degree %d after extraction", v, d)
				}
			}
			if donor.NumEdges()+int64(len(rows)) != edgesBefore {
				t.Fatalf("edge accounting: %d live + %d extracted != %d before",
					donor.NumEdges(), len(rows), edgesBefore)
			}
			// Extraction preserves per-source order within the batch; the
			// recipient installs through the ordinary batched path.
			recipient, err := concurrent.New(16, cfg, concurrent.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := recipient.ApplyUpdates(rows); err != nil {
				t.Fatalf("install: %v", err)
			}
			union := append(dumpSorted(donor), dumpSorted(recipient)...)
			sort.Slice(union, func(i, j int) bool {
				a, b := union[i], union[j]
				if a.src != b.src {
					return a.src < b.src
				}
				if a.dst != b.dst {
					return a.dst < b.dst
				}
				if a.bias != b.bias {
					return a.bias < b.bias
				}
				return a.fbias < b.fbias
			})
			if len(union) != len(before) {
				t.Fatalf("union %d edges, want %d", len(union), len(before))
			}
			for i := range union {
				if union[i] != before[i] {
					t.Fatalf("edge %d diverges: %+v vs %+v", i, union[i], before[i])
				}
			}
			for name, eng := range map[string]*concurrent.Engine{"donor": donor, "recipient": recipient} {
				var ierr error
				eng.Quiesce(func(s *core.Sampler) { ierr = s.CheckInvariants() })
				if ierr != nil {
					t.Fatalf("%s invariants: %v", name, ierr)
				}
			}
			// Sampling at a moved vertex reproduces the pre-extraction
			// distribution (spot-check: the neighbor sets match exactly,
			// probabilities are pinned by the invariant checks above).
			for v := graph.VertexID(lo); v < hi; v++ {
				wantDeg := 0
				for _, e := range before {
					if e.src == v {
						wantDeg++
					}
				}
				if got := recipient.Degree(v); got != wantDeg {
					t.Fatalf("vertex %d degree %d on recipient, want %d", v, got, wantDeg)
				}
			}
		})
	}
}

// TestExtractRangeConcurrent runs extraction while walkers sample and
// writers mutate *outside* the range — extraction is stop-the-world, so
// the only acceptable outcomes are fully-before or fully-after views.
func TestExtractRangeConcurrent(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := concurrent.New(128, cfg, concurrent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(0xC0)
	var ups []graph.Update
	for i := 0; i < 2000; i++ {
		ups = append(ups, graph.Update{
			Op: graph.OpInsert, Src: graph.VertexID(r.Intn(128)), Dst: graph.VertexID(r.Intn(128)),
			Bias: uint64(1 + r.Intn(100)),
		})
	}
	if err := e.ApplyUpdates(ups); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wr := xrand.New(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Mutate only vertices outside [32, 64).
			src := graph.VertexID(64 + wr.Intn(64))
			_ = e.Insert(src, graph.VertexID(wr.Intn(128)), uint64(1+wr.Intn(10)))
			wk := xrand.New(2)
			e.WalkFrom(graph.VertexID(wr.Intn(128)), 8, wk, nil)
		}
	}()
	for i := 0; i < 20; i++ {
		rows, err := e.ExtractRange(32, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyUpdates(rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	var ierr error
	e.Quiesce(func(s *core.Sampler) { ierr = s.CheckInvariants() })
	if ierr != nil {
		t.Fatal(ierr)
	}
}
