package adj

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/xrand"
)

func TestAppendAndAccess(t *testing.T) {
	l := New(3, false, 0)
	if l.NumVertices() != 3 || l.NumEdges() != 0 {
		t.Fatal("bad initial state")
	}
	i := l.Append(0, 1, 5, 0)
	j := l.Append(0, 2, 4, 0)
	if i != 0 || j != 1 {
		t.Errorf("slots = %d,%d want 0,1", i, j)
	}
	if l.Degree(0) != 2 || l.NumEdges() != 2 {
		t.Error("degree/edge count wrong")
	}
	if l.Dst(0, 0) != 1 || l.Bias(0, 0) != 5 || l.Dst(0, 1) != 2 || l.Bias(0, 1) != 4 {
		t.Error("stored values wrong")
	}
	if l.Rem(0, 0) != 0 {
		t.Error("rem should be 0 outside float mode")
	}
}

func TestFloatMode(t *testing.T) {
	l := New(2, true, 0)
	l.Append(0, 1, 5, 0.54)
	if l.Rem(0, 0) != 0.54 {
		t.Errorf("rem = %v, want 0.54", l.Rem(0, 0))
	}
	if !l.FloatMode() {
		t.Error("FloatMode false")
	}
	if l.RemRow(0)[0] != 0.54 {
		t.Error("RemRow wrong")
	}
	l.SetBias(0, 0, 7, 0.26)
	if l.Bias(0, 0) != 7 || l.Rem(0, 0) != 0.26 {
		t.Error("SetBias did not update both parts")
	}
}

func TestFindWithAndWithoutIndex(t *testing.T) {
	l := New(1, false, 4) // low threshold to force promotion
	for d := uint32(1); d <= 3; d++ {
		l.Append(0, d, uint64(d), 0)
	}
	if l.idx[0] != nil {
		t.Fatal("index built too early")
	}
	if l.Find(0, 2) != 1 || l.Find(0, 9) != -1 {
		t.Error("linear Find wrong")
	}
	for d := uint32(4); d <= 10; d++ {
		l.Append(0, d, uint64(d), 0)
	}
	if l.idx[0] == nil {
		t.Fatal("index not promoted past threshold")
	}
	for d := uint32(1); d <= 10; d++ {
		got := l.Find(0, d)
		if got < 0 || l.Dst(0, got) != d {
			t.Errorf("indexed Find(%d) = %d", d, got)
		}
	}
	if l.Find(0, 99) != -1 {
		t.Error("found absent edge")
	}
	if !l.HasEdge(0, 5) || l.HasEdge(0, 99) {
		t.Error("HasEdge wrong")
	}
}

func TestSwapDelete(t *testing.T) {
	l := New(1, false, 2)
	for d := uint32(10); d < 15; d++ {
		l.Append(0, d, uint64(d), 0)
	}
	// Delete middle slot 1 (dst 11): last (14) moves in.
	moved := l.SwapDelete(0, 1)
	if moved != 4 {
		t.Errorf("moved = %d, want 4", moved)
	}
	if l.Dst(0, 1) != 14 || l.Degree(0) != 4 {
		t.Error("swap-delete result wrong")
	}
	if l.Find(0, 11) != -1 {
		t.Error("deleted edge still findable")
	}
	if got := l.Find(0, 14); got != 1 {
		t.Errorf("moved edge findable at %d, want 1", got)
	}
	// Delete the (new) last slot: no move.
	moved = l.SwapDelete(0, int32(l.Degree(0)-1))
	if moved != -1 {
		t.Errorf("tail delete moved = %d, want -1", moved)
	}
}

func TestSwapDeletePanicsOutOfRange(t *testing.T) {
	l := New(1, false, 0)
	l.Append(0, 1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range SwapDelete did not panic")
		}
	}()
	l.SwapDelete(0, 5)
}

func TestEnsureVertex(t *testing.T) {
	l := New(1, true, 0)
	l.EnsureVertex(5)
	if l.NumVertices() != 6 {
		t.Errorf("NumVertices = %d, want 6", l.NumVertices())
	}
	l.Append(5, 0, 3, 0.5)
	if l.Dst(5, 0) != 0 {
		t.Error("append to grown vertex failed")
	}
}

func TestDuplicateEdges(t *testing.T) {
	l := New(1, false, 2)
	l.Append(0, 7, 1, 0)
	l.Append(0, 7, 2, 0)
	l.Append(0, 7, 3, 0)
	if l.Degree(0) != 3 {
		t.Fatal("duplicates not stored")
	}
	// Delete them one at a time via Find; all must eventually disappear.
	for k := 0; k < 3; k++ {
		i := l.Find(0, 7)
		if i < 0 {
			t.Fatalf("dup %d not found", k)
		}
		l.SwapDelete(0, i)
	}
	if l.Find(0, 7) != -1 || l.Degree(0) != 0 {
		t.Error("duplicate deletion incomplete")
	}
}

func TestGrowPreservesData(t *testing.T) {
	l := New(1, true, 0)
	l.Append(0, 1, 5, 0.25)
	l.Grow(0, 1000)
	if l.Dst(0, 0) != 1 || l.Bias(0, 0) != 5 || l.Rem(0, 0) != 0.25 {
		t.Error("Grow lost data")
	}
	if cap(l.dst[0]) < 1001 {
		t.Error("Grow did not reserve")
	}
}

func TestFootprintGrows(t *testing.T) {
	l := New(10, false, 0)
	base := l.Footprint()
	for i := 0; i < 100; i++ {
		l.Append(0, uint32(i), 1, 0)
	}
	if l.Footprint() <= base {
		t.Error("footprint did not grow with edges")
	}
}

// TestRandomizedAgainstModel drives Lists with random ops and compares
// against a simple map-based multiset model.
func TestRandomizedAgainstModel(t *testing.T) {
	r := xrand.New(2024)
	const V = 8
	l := New(V, false, 4)
	type edge struct {
		dst  uint32
		bias uint64
	}
	model := make([]map[edge]int, V) // multiset per vertex
	for i := range model {
		model[i] = map[edge]int{}
	}
	for op := 0; op < 30000; op++ {
		u := uint32(r.Intn(V))
		if l.Degree(u) == 0 || r.Float64() < 0.55 {
			d := uint32(r.Intn(V))
			b := uint64(1 + r.Intn(100))
			l.Append(u, d, b, 0)
			model[u][edge{d, b}]++
		} else {
			i := int32(r.Intn(l.Degree(u)))
			e := edge{l.Dst(u, i), l.Bias(u, i)}
			l.SwapDelete(u, i)
			model[u][e]--
			if model[u][e] == 0 {
				delete(model[u], e)
			}
		}
	}
	var total int64
	for u := 0; u < V; u++ {
		got := map[edge]int{}
		for i := 0; i < l.Degree(uint32(u)); i++ {
			e := edge{l.Dst(uint32(u), int32(i)), l.Bias(uint32(u), int32(i))}
			got[e]++
			total++
		}
		for e, n := range model[u] {
			if got[e] != n {
				t.Fatalf("vertex %d edge %+v: count %d, model %d", u, e, got[e], n)
			}
		}
		if len(got) != len(model[u]) {
			t.Fatalf("vertex %d has extra edges", u)
		}
		// Every model edge must be findable; every findable edge must
		// exist in the model.
		for e := range model[u] {
			if l.Find(uint32(u), e.dst) < 0 {
				t.Fatalf("vertex %d: cannot find dst %d", u, e.dst)
			}
		}
	}
	if total != l.NumEdges() {
		t.Errorf("NumEdges = %d, counted %d", l.NumEdges(), total)
	}
}

func BenchmarkAppendDelete(b *testing.B) {
	l := New(1, false, 0)
	for i := 0; i < 1000; i++ {
		l.Append(0, uint32(i), 1, 0)
	}
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(0, uint32(i), 1, 0)
		l.SwapDelete(0, int32(r.Intn(l.Degree(0))))
	}
}

// TestSetRowMatchesAppend fills rows of every size around the index
// threshold both ways: SetRow must leave the columns, the edge count,
// every lookup and the footprint exactly as Grow plus an Append per edge
// does, and refuse a row that is not empty.
func TestSetRowMatchesAppend(t *testing.T) {
	for _, float := range []bool{false, true} {
		r := xrand.New(31)
		const rows = 80
		a, s := New(rows, float, 0), New(rows, float, 0)
		for u := uint32(0); u < rows; u++ {
			d := int(u) * 3 // 0 … 237: below, at and far above the threshold
			dst := make([]uint32, d)
			bias := make([]uint64, d)
			var rem []float32
			if float {
				rem = make([]float32, d)
			}
			a.Grow(u, d)
			for i := range dst {
				dst[i], bias[i] = uint32(r.Intn(4*d+1)), uint64(1+r.Intn(100))
				var rm float32
				if float {
					rem[i] = float32(r.Float64())
					rm = rem[i]
				}
				a.Append(u, dst[i], bias[i], rm)
			}
			if d > 0 {
				s.SetRow(u, dst, bias, rem)
			}
		}
		if a.NumEdges() != s.NumEdges() || a.Footprint() != s.Footprint() {
			t.Fatalf("float=%v: edges %d vs %d, footprint %d vs %d", float, a.NumEdges(), s.NumEdges(), a.Footprint(), s.Footprint())
		}
		for u := uint32(0); u < rows; u++ {
			for i := 0; i < a.Degree(u); i++ {
				if a.Dst(u, int32(i)) != s.Dst(u, int32(i)) || a.Bias(u, int32(i)) != s.Bias(u, int32(i)) || a.Rem(u, int32(i)) != s.Rem(u, int32(i)) {
					t.Fatalf("float=%v: row %d slot %d differs", float, u, i)
				}
			}
			for k := uint32(0); k < uint32(12*rows); k++ {
				fa, fs := a.Find(u, k), s.Find(u, k)
				if (fa < 0) != (fs < 0) || fs >= 0 && s.Dst(u, fs) != k {
					t.Fatalf("float=%v: row %d Find(%d) = %d vs %d", float, u, k, fa, fs)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SetRow on a non-empty row did not panic")
		}
	}()
	l := New(1, false, 0)
	l.Append(0, 1, 1, 0)
	l.SetRow(0, []uint32{2}, []uint64{1}, nil)
}
