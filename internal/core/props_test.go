package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// TestPropertyRandomOpSequences is the main structural fuzzer: random
// streams of streaming inserts/deletes and batches, in every configuration,
// with full invariant checks at every step boundary and an exact
// distribution equivalence check (Theorem 4.1) at the end.
func TestPropertyRandomOpSequences(t *testing.T) {
	configs := map[string]Config{
		"default":  DefaultConfig(),
		"baseline": {RadixBits: 1, Adaptive: false},
		"base4":    {RadixBits: 2, Adaptive: true},
		"base16":   {RadixBits: 4, Adaptive: true},
		"float":    {RadixBits: 1, Adaptive: true, FloatBias: true, Lambda: 64},
		"tightAB":  {RadixBits: 1, Adaptive: true, AlphaPct: 25, BetaPct: 5},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			r := xrand.New(0xfade ^ uint64(len(name)))
			const V = 24
			s, err := New(V, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var pending []graph.Update
			for op := 0; op < 1500; op++ {
				u := graph.VertexID(r.Intn(V))
				switch {
				case r.Float64() < 0.5: // streaming op
					if s.Degree(u) > 0 && r.Float64() < 0.45 {
						dst := s.Neighbor(u, int32(r.Intn(s.Degree(u))))
						if err := s.Delete(u, dst); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
					} else {
						bias := uint64(1 + r.Intn(4000))
						fb := 0.0
						if cfg.FloatBias {
							fb = r.Float64()
						}
						if cfg.FloatBias {
							if err := s.InsertFloat(u, graph.VertexID(r.Intn(V)), float64(bias)+fb); err != nil {
								t.Fatalf("op %d: %v", op, err)
							}
						} else if err := s.Insert(u, graph.VertexID(r.Intn(V)), bias); err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
					}
				case r.Float64() < 0.8: // queue for batch
					upd := graph.Update{Src: u, Dst: graph.VertexID(r.Intn(V))}
					if s.Degree(u) > 0 && r.Float64() < 0.4 {
						upd.Op = graph.OpDelete
						upd.Dst = s.Neighbor(u, int32(r.Intn(s.Degree(u))))
					} else {
						upd.Op = graph.OpInsert
						upd.Bias = uint64(1 + r.Intn(4000))
						if cfg.FloatBias {
							upd.FBias = r.Float64()
						}
					}
					pending = append(pending, upd)
				default: // flush batch
					if len(pending) > 0 {
						if _, err := s.ApplyBatch(pending); err != nil {
							t.Fatalf("op %d batch: %v", op, err)
						}
						pending = pending[:0]
					}
				}
				if op%150 == 0 {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if len(pending) > 0 {
				if _, err := s.ApplyBatch(pending); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Theorem 4.1: the encoded distribution must equal Equation 2
			// exactly on every vertex.
			for u := graph.VertexID(0); u < V; u++ {
				if s.Degree(u) == 0 {
					continue
				}
				probs := s.VertexProbabilities(u)
				total := 0.0
				for i := 0; i < s.Degree(u); i++ {
					total += float64(s.adjs.Bias(u, int32(i))) + float64(s.adjs.Rem(u, int32(i)))
				}
				for slot, p := range probs {
					w := float64(s.adjs.Bias(u, slot)) + float64(s.adjs.Rem(u, slot))
					want := w / total
					if math.Abs(p-want) > 1e-6*want+1e-9 {
						t.Fatalf("vertex %d slot %d: p=%v want %v", u, slot, p, want)
					}
				}
			}
		})
	}
}

// TestPropertyClassifyMatchesEquation9 checks the classification function
// against a direct transcription of Equation 9.
func TestPropertyClassifyMatchesEquation9(t *testing.T) {
	f := func(countRaw uint16, dRaw uint16) bool {
		d := int(dRaw%5000) + 1
		count := int32(int(countRaw) % (d + 1))
		got := classify(count, d, 40, 10)
		ratio := float64(count) * 100 / float64(d)
		var want GroupKind
		switch {
		case count == 0:
			want = KindEmpty
		case ratio > 40:
			want = KindDense
		case count == 1:
			want = KindOne
		case ratio < 10:
			want = KindSparse
		default:
			want = KindRegular
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHysteresisNoThrash verifies the streaming conversion policy
// cannot oscillate: an add followed by a delete (returning to the same
// state) must not perform two conversions.
func TestPropertyHysteresisNoThrash(t *testing.T) {
	s, _ := New(64, DefaultConfig())
	r := xrand.New(77)
	// Build a vertex whose group ratios sit near the α boundary.
	for i := 1; i <= 40; i++ {
		bias := uint64(1)
		if r.Float64() < 0.41 {
			bias = 3
		}
		if err := s.Insert(0, graph.VertexID(i%60), bias); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetConversionStats()
	// Oscillate one edge in and out many times.
	for i := 0; i < 200; i++ {
		if err := s.Insert(0, 61, 2); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(0, 61); err != nil {
			t.Fatal(err)
		}
	}
	conv, _ := s.ConversionStats()
	var total int64
	for i := range conv {
		for j := range conv[i] {
			total += conv[i][j]
		}
	}
	// 400 updates near a boundary must produce far fewer conversions
	// than updates (amortized O(1)); allow a generous margin.
	if total > 40 {
		t.Errorf("%d conversions across 400 boundary-oscillating updates", total)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEmpiricalAfterChurn draws a final empirical sample on a
// randomly churned vertex and chi-square-tests it against the adjacency.
func TestPropertyEmpiricalAfterChurn(t *testing.T) {
	for _, bits := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.RadixBits = bits
		s, _ := New(40, cfg)
		r := xrand.New(uint64(1000 + bits))
		for op := 0; op < 3000; op++ {
			if s.Degree(3) > 0 && r.Float64() < 0.48 {
				dst := s.Neighbor(3, int32(r.Intn(s.Degree(3))))
				if err := s.Delete(3, dst); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := s.Insert(3, graph.VertexID(r.Intn(40)), uint64(1+r.Intn(2048))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if s.Degree(3) < 3 {
			continue
		}
		want := map[graph.VertexID]float64{}
		total := s.TotalBias(3)
		for i := 0; i < s.Degree(3); i++ {
			want[s.adjs.Dst(3, int32(i))] += float64(s.adjs.Bias(3, int32(i))) / total
		}
		checkVertexDistribution(t, s, 3, want, 150000)
	}
}

// TestGroupConversionRoundTrips converts a group through every
// representation cycle and verifies membership is preserved.
func TestGroupConversionRoundTrips(t *testing.T) {
	const d = 50
	biasRow := make([]uint64, d)
	for i := range biasRow {
		biasRow[i] = uint64(i%7 + 1)
	}
	// Group for bit 1 (gid=1): members are indices with bias bit 1 set
	// (biases 2,3,6,7 mod 7 pattern).
	g := group{gid: 1, kind: KindEmpty, one: -1}
	var want []int32
	for i := int32(0); i < d; i++ {
		if biasRow[i]&2 != 0 {
			want = append(want, i)
		}
	}
	// Start regular.
	g.convertTo(KindRegular, d, biasRow, 1, nil)
	for _, m := range want {
		g.add(m)
	}
	kinds := []GroupKind{KindSparse, KindDense, KindRegular, KindDense, KindSparse, KindRegular}
	for _, k := range kinds {
		g.convertTo(k, d, biasRow, 1, nil)
		got := g.members(nil, biasRow, 1)
		if len(got) != len(want) {
			t.Fatalf("after convert to %v: %d members, want %d", k, len(got), len(want))
		}
		seen := map[int32]bool{}
		for _, m := range got {
			seen[m] = true
		}
		for _, m := range want {
			if !seen[m] {
				t.Fatalf("after convert to %v: member %d lost", k, m)
			}
		}
		if g.count != int32(len(want)) {
			t.Fatalf("after convert to %v: count %d", k, g.count)
		}
	}
}

func TestGroupOneElementConversion(t *testing.T) {
	biasRow := []uint64{4, 1, 1, 1}
	g := group{gid: 2, kind: KindEmpty, one: -1}
	g.add(0) // becomes one-element
	if g.kind != KindOne || g.one != 0 {
		t.Fatalf("kind %v one %d", g.kind, g.one)
	}
	g.convertTo(KindRegular, 4, biasRow, 1, nil)
	if g.ix.inv[0] != 0 || g.list[0] != 0 {
		t.Fatal("one→regular lost the member")
	}
	g.convertTo(KindOne, 4, biasRow, 1, nil)
	if g.one != 0 || g.count != 1 {
		t.Fatal("regular→one lost the member")
	}
}

func TestGroupSampleUniformity(t *testing.T) {
	// Intra-group sampling must be uniform for every representation.
	const d = 40
	biasRow := make([]uint64, d)
	for i := range biasRow {
		if i%2 == 0 {
			biasRow[i] = 1
		} else {
			biasRow[i] = 2
		}
	}
	members := make(map[int32]bool)
	g := group{gid: 0, kind: KindEmpty, one: -1}
	g.convertTo(KindRegular, d, biasRow, 1, nil)
	for i := int32(0); i < d; i += 2 {
		g.add(i)
		members[i] = true
	}
	r := xrand.New(31)
	for _, k := range []GroupKind{KindRegular, KindSparse, KindDense} {
		g.convertTo(k, d, biasRow, 1, nil)
		counts := map[int32]int{}
		const draws = 40000
		for i := 0; i < draws; i++ {
			m := g.sample(r, biasRow, 1)
			if !members[m] {
				t.Fatalf("%v sampled non-member %d", k, m)
			}
			counts[m]++
		}
		want := float64(draws) / float64(len(members))
		for m, c := range counts {
			if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
				t.Errorf("%v: member %d count %d, want ~%.0f", k, m, c, want)
			}
		}
	}
}

// TestPropertyPow2 cross-checks the exact power-of-two helper against the
// shift-based ground truth.
func TestPropertyPow2(t *testing.T) {
	for e := 0; e < 63; e++ {
		if pow2(e) != float64(uint64(1)<<uint(e)) {
			t.Fatalf("pow2(%d) = %v", e, pow2(e))
		}
	}
	if pow2(64) != math.Ldexp(1, 64) || pow2(120) != math.Ldexp(1, 120) {
		t.Error("large pow2 wrong")
	}
}

func TestGIDRoundTrip(t *testing.T) {
	for _, b := range []int{1, 2, 3, 4, 8} {
		base := 1 << uint(b)
		for j := 0; j < 10; j++ {
			for v := uint64(1); v < uint64(base); v++ {
				gid := gidOf(j, v, b)
				gj, gv := decodeGID(gid, b)
				if gj != j || gv != v {
					t.Fatalf("b=%d: gid(%d,%d)=%d decodes to (%d,%d)", b, j, v, gid, gj, gv)
				}
			}
		}
	}
}
