package core

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// FuzzSamplerMutate drives random insert/delete/update-bias/sample
// sequences, decoded from the fuzz byte tape, against the full invariant
// checker — in integer and float mode side by side. Any state corruption
// the structural invariants can express (group membership, inverted
// indices, alias totals, decimal group, adaptive-kind policy) becomes a
// crash the fuzzer can minimize. Seed corpus lives under
// testdata/fuzz/FuzzSamplerMutate.
func FuzzSamplerMutate(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x40\x00\x02\x03\x7f\x02\x01\x02\x00\x04\x01\x00\x00"))
	f.Add([]byte("insert-heavy tape with deletes 0123456789"))
	f.Add([]byte{0, 0, 1, 255, 0, 0, 1, 254, 2, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 9})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const nV = 12
		intS, err := New(nV, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fcfg := DefaultConfig()
		fcfg.FloatBias = true
		fcfg.Lambda = 512
		fltS, err := New(nV, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(0xF022)

		ops := 0
		for i := 0; i+3 < len(tape); i += 4 {
			op := tape[i] % 5
			u := graph.VertexID(tape[i+1] % nV)
			v := graph.VertexID(tape[i+2] % nV)
			bias := uint64(tape[i+3]%200) + 1
			w := float64(bias) + float64(tape[i+2])/256
			switch op {
			case 0, 1: // insert (weighted toward growth)
				if err := intS.Insert(u, v, bias); err != nil {
					t.Fatalf("op %d: int insert (%d,%d,%d): %v", i, u, v, bias, err)
				}
				if err := fltS.InsertFloat(u, v, w); err != nil {
					t.Fatalf("op %d: float insert (%d,%d,%v): %v", i, u, v, w, err)
				}
			case 2: // delete (tolerate missing)
				ie := intS.Delete(u, v)
				fe := fltS.Delete(u, v)
				if (ie == nil) != (fe == nil) {
					t.Fatalf("op %d: delete (%d,%d) disagrees: int=%v float=%v", i, u, v, ie, fe)
				}
			case 3: // update bias (tolerate missing)
				intS.UpdateBias(u, v, bias)   //nolint:errcheck
				fltS.UpdateBiasFloat(u, v, w) //nolint:errcheck
			case 4: // sample; result must be a live neighbor
				if got, ok := intS.Sample(u, r); ok && !intS.HasEdge(u, got) {
					t.Fatalf("op %d: int sampled dead edge (%d,%d)", i, u, got)
				}
				if got, ok := fltS.Sample(u, r); ok && !fltS.HasEdge(u, got) {
					t.Fatalf("op %d: float sampled dead edge (%d,%d)", i, u, got)
				}
			}
			ops++
			if ops%16 == 0 {
				if err := intS.CheckInvariants(); err != nil {
					t.Fatalf("op %d: int invariants: %v", i, err)
				}
				if err := fltS.CheckInvariants(); err != nil {
					t.Fatalf("op %d: float invariants: %v", i, err)
				}
			}
		}
		if err := intS.CheckInvariants(); err != nil {
			t.Fatalf("final int invariants: %v", err)
		}
		if err := fltS.CheckInvariants(); err != nil {
			t.Fatalf("final float invariants: %v", err)
		}
		if ii, ff := intS.NumEdges(), fltS.NumEdges(); ii != ff {
			t.Fatalf("edge counts diverged: int %d, float %d", ii, ff)
		}
		// The staged frontier draw must still match per-slot Sample over
		// every vertex, each twice, and the first ID past the vertex space.
		cur := make([]graph.VertexID, 0, 2*(nV+1))
		for u := 0; u <= nV; u++ {
			cur = append(cur, graph.VertexID(u), graph.VertexID(nV-u))
		}
		if msg := sampleFrontierMismatch(intS, cur, uint64(len(tape))); msg != "" {
			t.Fatalf("int frontier: %s", msg)
		}
		if msg := sampleFrontierMismatch(fltS, cur, uint64(len(tape))); msg != "" {
			t.Fatalf("float frontier: %s", msg)
		}
	})
}
