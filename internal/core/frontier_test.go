package core

import (
	"fmt"
	"testing"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// sampleFrontierMismatch runs SampleFrontier over cur with streams split
// from seed, and per-slot Sample over the same vertices with identical
// streams, and describes the first slot where the two disagree in next
// (when ok), ok, or the stream's state afterwards ("" when none does).
func sampleFrontierMismatch(s *Sampler, cur []graph.VertexID, seed uint64) string {
	master := xrand.New(seed)
	staged := make([]*xrand.RNG, len(cur))
	for i := range staged {
		staged[i] = master.Split(uint64(i))
	}
	next := make([]graph.VertexID, len(cur))
	ok := make([]bool, len(cur))
	s.SampleFrontier(cur, staged, next, ok)
	for i, u := range cur {
		r := master.Split(uint64(i))
		v, vok := s.Sample(u, r)
		switch {
		case ok[i] != vok:
			return fmt.Sprintf("slot %d at %d: ok %v, Sample says %v", i, u, ok[i], vok)
		case vok && next[i] != v:
			return fmt.Sprintf("slot %d at %d: drew %d, Sample drew %d", i, u, next[i], v)
		case staged[i].State() != r.State():
			return fmt.Sprintf("slot %d at %d: stream state differs from Sample's", i, u)
		}
	}
	return ""
}

// TestSampleFrontierMatchesSample checks the staged frontier draw against
// per-slot Sample on the pinned mutation-tape samplers (integer radix 1
// and 4, float), over frontiers that mix repeated vertices, degree-0
// vertices, IDs past NumVertices, single-bucket vertices and hubs whose
// dense groups draw by rejection — each of which must actually occur.
func TestSampleFrontierMatchesSample(t *testing.T) {
	for _, tc := range []struct {
		name      string
		radixBits int
		float     bool
	}{{"int-radix1", 1, false}, {"int-radix4", 4, false}, {"float-radix1", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := pinnedSampler(t, tc.radixBits, tc.float)
			n := s.NumVertices()
			hubs := topHubs(s, 8)
			var zero []graph.VertexID
			for u := 0; u < n; u++ {
				if s.Degree(graph.VertexID(u)) == 0 {
					zero = append(zero, graph.VertexID(u))
				}
			}
			if len(zero) == 0 {
				t.Fatal("tape left no degree-0 vertex")
			}
			r := xrand.New(7)
			cur := make([]graph.VertexID, 512)
			var repeats, degree0, outside, single, dense int
			for round := 0; round < 40; round++ {
				seen := map[graph.VertexID]bool{}
				for i := range cur {
					switch roll := r.Intn(10); {
					case roll < 4:
						cur[i] = hubs[r.Intn(len(hubs))]
					case roll < 5:
						cur[i] = zero[r.Intn(len(zero))]
					case roll < 6:
						cur[i] = graph.VertexID(n + r.Intn(3))
					default:
						cur[i] = graph.VertexID(r.Intn(n))
					}
					u := cur[i]
					if seen[u] {
						repeats++
					}
					seen[u] = true
					switch {
					case int(u) >= n:
						outside++
					case s.Degree(u) == 0:
						degree0++
					case len(s.vx[u].buckets) == 1:
						single++
					}
				}
				dense += densePicks(s, cur, uint64(round))
				if msg := sampleFrontierMismatch(s, cur, uint64(round)); msg != "" {
					t.Fatalf("round %d: %s", round, msg)
				}
			}
			t.Logf("slots: %d repeated, %d degree-0, %d past NumVertices, %d single-bucket, %d dense-group draws",
				repeats, degree0, outside, single, dense)
			if repeats == 0 || degree0 == 0 || outside == 0 || single == 0 || dense == 0 {
				t.Fatal("a frontier case never occurred")
			}
		})
	}
}

// densePicks counts the slots of cur whose bucket pick, replayed on a copy
// of the stream sampleFrontierMismatch gives the slot, lands on a dense
// group.
func densePicks(s *Sampler, cur []graph.VertexID, seed uint64) int {
	master := xrand.New(seed)
	count := 0
	for i, u := range cur {
		if int(u) >= len(s.vx) || len(s.vx[u].buckets) == 0 {
			continue
		}
		vx := &s.vx[u]
		if gi := vx.pick(master.Split(uint64(i))); gi < len(vx.groups) && vx.groups[gi].kind == KindDense {
			count++
		}
	}
	return count
}
