package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// TestSampleSequencePinned pins the exact draw sequence of Sample and
// SampleSlot, and the exact ViewOf content of the top hubs, after a seeded
// tape through every mutation path. The digests are constants: a change to
// how the per-vertex record is stored must leave them untouched, which is
// the proof that it changed storage only — the alias buckets, their order,
// the group member order and the RNG consumption per draw are all covered.
func TestSampleSequencePinned(t *testing.T) {
	cases := []struct {
		name      string
		radixBits int
		float     bool
		draws     uint64
		views     uint64
	}{
		{"int-radix1", 1, false, 0xfa1e463040bf68c9, 0x4bf2d9051966eb75},
		{"int-radix4", 4, false, 0xa2818ba5323fcc4f, 0xa6f29ddf1c78adbd},
		{"float-radix1", 1, true, 0x261acf53ab167f27, 0x297566e3ec34697c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := pinnedSampler(t, tc.radixBits, tc.float)
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			draws, views := pinnedDigests(s)
			if draws != tc.draws || views != tc.views {
				t.Errorf("digests draws=%#x views=%#x, pinned draws=%#x views=%#x",
					draws, views, tc.draws, tc.views)
			}
		})
	}
}

// pinnedSampler builds a seeded R-MAT snapshot and drives it through
// ApplyBatch, ApplyUpdatesStreaming, Insert, Delete, UpdateBias and
// DeleteVertex, concentrating the direct tape on the hubs so group-kind
// conversions fire in every direction.
func pinnedSampler(t *testing.T, radixBits int, float bool) *Sampler {
	t.Helper()
	const n = 400
	edges := gen.RMAT(n, 6000, gen.DefaultRMAT, 42)
	gen.AssignBiases(edges, n, gen.BiasConfig{Kind: gen.BiasPowerLaw, Max: 4096, Float: float, Seed: 5})
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.BuildWorkload(g, gen.UpdMixed, 300, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RadixBits = radixBits
	cfg.FloatBias = float
	cfg.Workers = 2
	s, err := NewFromCSR(w.Initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range w.Batches() {
		if i%2 == 0 {
			_, err = s.ApplyBatch(b)
		} else {
			err = s.ApplyUpdatesStreaming(b)
		}
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	hubs := topHubs(s, 8)
	r := xrand.New(99)
	for op := 0; op < 4000; op++ {
		u := graph.VertexID(r.Intn(n))
		if r.Float64() < 0.6 {
			u = hubs[r.Intn(len(hubs))]
		}
		switch roll := r.Float64(); {
		case roll < 0.40:
			err = s.Insert(u, graph.VertexID(r.Intn(n)), uint64(1+r.Intn(1<<uint(1+r.Intn(14)))))
		case roll < 0.70 && s.Degree(u) > 0:
			err = s.Delete(u, s.Neighbor(u, int32(r.Intn(s.Degree(u)))))
		case roll < 0.95 && s.Degree(u) > 0:
			dst := s.Neighbor(u, int32(r.Intn(s.Degree(u))))
			err = s.UpdateBias(u, dst, uint64(1+r.Intn(1<<uint(1+r.Intn(14)))))
		case roll < 0.96:
			err = s.DeleteVertex(u)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	return s
}

// topHubs returns the k highest-degree vertices, ties broken by ID.
func topHubs(s *Sampler, k int) []graph.VertexID {
	ids := make([]graph.VertexID, s.NumVertices())
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	sort.SliceStable(ids, func(i, j int) bool { return s.Degree(ids[i]) > s.Degree(ids[j]) })
	return ids[:k]
}

// pinnedDigests hashes 200k Sample and 200k SampleSlot draws from uniformly
// chosen start vertices, then the ViewOf fields of the top 8 hubs.
func pinnedDigests(s *Sampler) (draws, views uint64) {
	h := fnv.New64a()
	r := xrand.New(2024)
	n := s.NumVertices()
	for i := 0; i < 200_000; i++ {
		u := graph.VertexID(r.Intn(n))
		v, ok := s.Sample(u, r)
		putU64(h, uint64(v))
		putBool(h, ok)
		slot, ok := s.SampleSlot(u, r)
		putU64(h, uint64(int64(slot)))
		putBool(h, ok)
	}
	draws = h.Sum64()

	h = fnv.New64a()
	for _, u := range topHubs(s, 8) {
		vw := s.ViewOf(u)
		putU64(h, uint64(vw.Vertex))
		putU64(h, uint64(vw.RadixBits))
		for _, d := range vw.Dsts {
			putU64(h, uint64(d))
		}
		for _, b := range vw.Bias {
			putU64(h, b)
		}
		for _, x := range vw.Rem {
			putU64(h, uint64(math.Float32bits(x)))
		}
		for _, g := range vw.Groups {
			putU64(h, uint64(g.GID))
			putU64(h, uint64(g.Kind))
			putU64(h, uint64(g.Count))
			putU64(h, uint64(int64(g.One)))
			for _, m := range g.List {
				putU64(h, uint64(m))
			}
		}
		for _, c := range vw.Cum {
			putU64(h, math.Float64bits(c))
		}
		putBool(h, vw.Dec)
		for _, m := range vw.DecList {
			putU64(h, uint64(m))
		}
		putU64(h, math.Float64bits(vw.DecSum))
		for _, c := range vw.AliasCut {
			putU64(h, c)
		}
		for _, a := range vw.AliasIdx {
			putU64(h, uint64(a))
		}
	}
	return draws, h.Sum64()
}

func putU64(h hash.Hash64, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

func putBool(h hash.Hash64, b bool) {
	if b {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}
