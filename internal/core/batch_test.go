package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

func TestApplyBatchBasic(t *testing.T) {
	s := runningExample(t, DefaultConfig())
	res, err := s.ApplyBatch([]graph.Update{
		{Op: graph.OpInsert, Src: 2, Dst: 3, Bias: 3},
		{Op: graph.OpDelete, Src: 2, Dst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 || res.NotFound != 0 {
		t.Fatalf("result %+v", res)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkVertexDistribution(t, s, 2, map[graph.VertexID]float64{
		4: 0.4, 5: 0.3, 3: 0.3,
	}, 120000)
}

func TestApplyBatchEmpty(t *testing.T) {
	s := runningExample(t, DefaultConfig())
	res, err := s.ApplyBatch(nil)
	if err != nil || res.Inserted+res.Deleted+res.NotFound != 0 {
		t.Fatalf("empty batch: %+v, %v", res, err)
	}
}

func TestApplyBatchNotFound(t *testing.T) {
	s := runningExample(t, DefaultConfig())
	res, err := s.ApplyBatch([]graph.Update{
		{Op: graph.OpDelete, Src: 2, Dst: 7},
		{Op: graph.OpDelete, Src: 2, Dst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NotFound != 1 || res.Deleted != 1 {
		t.Fatalf("result %+v", res)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchZeroBiasRejected(t *testing.T) {
	s := runningExample(t, DefaultConfig())
	before := s.NumEdges()
	_, err := s.ApplyBatch([]graph.Update{
		{Op: graph.OpInsert, Src: 0, Dst: 3, Bias: 7},
		{Op: graph.OpInsert, Src: 0, Dst: 4, Bias: 0},
	})
	if !errors.Is(err, ErrZeroBias) {
		t.Fatalf("err = %v", err)
	}
	if s.NumEdges() != before {
		t.Error("failed batch partially applied")
	}
}

// TestTwoPhaseDeleteAdversarial exercises the Figure 10(b) scenario the
// paper motivates: victims residing in the tail window that would
// otherwise be used to fill holes.
func TestTwoPhaseDeleteAdversarial(t *testing.T) {
	s, _ := New(32, DefaultConfig())
	// Vertex 0 with 10 neighbors 1..10, biases = dst.
	for i := 1; i <= 10; i++ {
		if err := s.Insert(0, graph.VertexID(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete entry 0 and the entire tail window except one survivor:
	// victims {1, 7, 8, 9, 10} (dsts). N=5, window = slots 5..9
	// (dsts 6..10). Victims in window: 7,8,9,10 → γ=4; survivors {6}
	// fill the single front hole (dst 1's slot).
	var ups []graph.Update
	for _, dst := range []graph.VertexID{1, 7, 8, 9, 10} {
		ups = append(ups, graph.Update{Op: graph.OpDelete, Src: 0, Dst: dst})
	}
	res, err := s.ApplyBatch(ups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 5 {
		t.Fatalf("deleted %d, want 5", res.Deleted)
	}
	if s.Degree(0) != 5 {
		t.Fatalf("degree %d, want 5", s.Degree(0))
	}
	for _, dst := range []graph.VertexID{2, 3, 4, 5, 6} {
		if !s.HasEdge(0, dst) {
			t.Errorf("surviving edge to %d lost", dst)
		}
	}
	for _, dst := range []graph.VertexID{1, 7, 8, 9, 10} {
		if s.HasEdge(0, dst) {
			t.Errorf("deleted edge to %d still present", dst)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkVertexDistribution(t, s, 0, map[graph.VertexID]float64{
		2: 2.0 / 20, 3: 3.0 / 20, 4: 4.0 / 20, 5: 5.0 / 20, 6: 6.0 / 20,
	}, 100000)
}

func TestTwoPhaseDeleteWholeVertex(t *testing.T) {
	s, _ := New(16, DefaultConfig())
	var ups []graph.Update
	for i := 1; i <= 8; i++ {
		if err := s.Insert(0, graph.VertexID(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		ups = append(ups, graph.Update{Op: graph.OpDelete, Src: 0, Dst: graph.VertexID(i)})
	}
	if _, err := s.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	if s.Degree(0) != 0 {
		t.Fatalf("degree %d after full deletion", s.Degree(0))
	}
	if _, ok := s.Sample(0, xrand.New(1)); ok {
		t.Error("sampled from emptied vertex")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchInsertDeleteSameEdge(t *testing.T) {
	// The paper's duplicated-edge case: re-insert a deleted edge within
	// one batch; and delete a just-inserted edge.
	s := runningExample(t, DefaultConfig())
	res, err := s.ApplyBatch([]graph.Update{
		{Op: graph.OpDelete, Src: 2, Dst: 1},
		{Op: graph.OpInsert, Src: 2, Dst: 1, Bias: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Insert-then-delete processing: insert lands first, then the delete
	// must remove the *earlier* (pre-batch, bias 5) instance, leaving
	// bias 9.
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("result %+v", res)
	}
	if s.Degree(2) != 3 {
		t.Fatalf("degree %d, want 3", s.Degree(2))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkVertexDistribution(t, s, 2, map[graph.VertexID]float64{
		1: 9.0 / 16, 4: 4.0 / 16, 5: 3.0 / 16,
	}, 120000)
}

func TestBatchMatchesStreaming(t *testing.T) {
	// The same update stream applied via streaming and batching must
	// yield identical per-destination mass everywhere.
	mkGraph := func() *graph.CSR {
		edges := gen.RMAT(200, 2000, gen.DefaultRMAT, 31)
		gen.AssignBiases(edges, 200, gen.BiasConfig{Kind: gen.BiasDegree})
		g, err := graph.FromEdges(200, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := mkGraph()
	w, err := gen.BuildWorkload(g, gen.UpdMixed, 100, 5, 77)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewFromCSR(w.Initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewFromCSR(w.Initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range w.Updates {
		switch up.Op {
		case graph.OpInsert:
			err = stream.Insert(up.Src, up.Dst, up.Bias)
		case graph.OpDelete:
			err = stream.Delete(up.Src, up.Dst)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range w.Batches() {
		if _, err := batch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.CheckInvariants(); err != nil {
		t.Fatalf("streaming: %v", err)
	}
	if err := batch.CheckInvariants(); err != nil {
		t.Fatalf("batched: %v", err)
	}
	if stream.NumEdges() != batch.NumEdges() {
		t.Fatalf("edges: streaming %d, batched %d", stream.NumEdges(), batch.NumEdges())
	}
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		sm := destMass(stream, u)
		bm := destMass(batch, u)
		if len(sm) != len(bm) {
			t.Fatalf("vertex %d: %d vs %d destinations", u, len(sm), len(bm))
		}
		for dst, m := range sm {
			if bm[dst] != m {
				t.Fatalf("vertex %d dst %d: mass %v vs %v", u, dst, m, bm[dst])
			}
		}
	}
}

// destMass sums integer bias mass per destination from the adjacency.
func destMass(s *Sampler, u graph.VertexID) map[graph.VertexID]uint64 {
	out := map[graph.VertexID]uint64{}
	for i := 0; i < s.Degree(u); i++ {
		out[s.adjs.Dst(u, int32(i))] += s.adjs.Bias(u, int32(i))
	}
	return out
}

func TestBatchParallelWorkers(t *testing.T) {
	// Same workload through 1 worker and 8 workers must agree; with
	// -race this also validates the concurrency design.
	edges := gen.RMAT(300, 4000, gen.DefaultRMAT, 55)
	gen.AssignBiases(edges, 300, gen.BiasConfig{Kind: gen.BiasDegree})
	g, err := graph.FromEdges(300, edges)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.BuildWorkload(g, gen.UpdMixed, 500, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := DefaultConfig()
	cfg1.Workers = 1
	cfg8 := DefaultConfig()
	cfg8.Workers = 8
	s1, _ := NewFromCSR(w.Initial, cfg1)
	s8, _ := NewFromCSR(w.Initial, cfg8)
	for _, b := range w.Batches() {
		b2 := append([]graph.Update(nil), b...)
		if _, err := s1.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := s8.ApplyBatch(b2); err != nil {
			t.Fatal(err)
		}
	}
	if err := s8.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s1.NumEdges() != s8.NumEdges() {
		t.Fatalf("edges %d vs %d", s1.NumEdges(), s8.NumEdges())
	}
	for u := graph.VertexID(0); int(u) < 300; u++ {
		m1, m8 := destMass(s1, u), destMass(s8, u)
		for dst, m := range m1 {
			if m8[dst] != m {
				t.Fatalf("vertex %d dst %d mass %v vs %v", u, dst, m, m8[dst])
			}
		}
	}
}

// TestApplyPerSourceCoversEveryRunOnce checks the fan-out alone, with a
// stand-in apply, ungrouped and grouped (by recordingGroups): on either
// side of one chunk and for several worker counts, every source is applied
// exactly once with its updates in submission order, no Scratch is shared
// by two goroutines at once, and the result sums equal the serial path's.
// Grouped, every run is applied inside a bracket of its own group, no two
// goroutines are inside one group at once, no bracket spans more than
// applyChunk runs, and a group's runs come in ascending source order.
func TestApplyPerSourceCoversEveryRunOnce(t *testing.T) {
	s, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(35)
	for _, nRuns := range []int{1, applyChunk - 1, applyChunk, applyChunk + 1, 10*applyChunk + 7} {
		// Each source gets 1-3 updates; Dst numbers a source's updates in
		// submission order, and the sources' tapes are interleaved at
		// random. Sources are spread over the whole 32-bit range.
		perSrc := map[graph.VertexID]int{}
		var pending []graph.VertexID // one entry per update still to emit
		for len(perSrc) < nRuns {
			u := graph.VertexID(r.Uint32())
			if perSrc[u] > 0 {
				continue
			}
			perSrc[u] = 1 + r.Intn(3)
			for range perSrc[u] {
				pending = append(pending, u)
			}
		}
		var want BatchResult
		var ups []graph.Update
		emitted := map[graph.VertexID]int{}
		for len(pending) > 0 {
			i := r.Intn(len(pending))
			u := pending[i]
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			op := graph.Op(r.Intn(2))
			ups = append(ups, graph.Update{Op: op, Src: u, Dst: graph.VertexID(emitted[u])})
			emitted[u]++
			if op == graph.OpInsert {
				want.Inserted++
			} else {
				want.Deleted++
			}
		}
		for _, nGroups := range []int{0, 1, 3, 16} {
			for _, workers := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("runs=%d groups=%d workers=%d", nRuns, nGroups, workers)
				var groups RunGroups
				var rec *recordingGroups
				if nGroups > 0 {
					rec = newRecordingGroups(t, name, nGroups)
					groups = rec
				}
				var mu sync.Mutex
				calls := map[graph.VertexID]int{}
				busy := map[*Scratch]bool{}
				in := append([]graph.Update(nil), ups...)
				got := s.ApplyPerSource(in, workers, groups, func(u graph.VertexID, ops []graph.Update, sc *Scratch) BatchResult {
					mu.Lock()
					if busy[sc] {
						t.Errorf("%s: Scratch %p used by two goroutines at once", name, sc)
					}
					busy[sc] = true
					calls[u]++
					mu.Unlock()
					if rec != nil {
						rec.applied(u)
					}
					var res BatchResult
					if len(ops) != perSrc[u] {
						t.Errorf("%s: source %d applied with %d updates, want %d", name, u, len(ops), perSrc[u])
					}
					for i, op := range ops {
						if op.Src != u || op.Dst != graph.VertexID(i) {
							t.Errorf("%s: source %d update %d is %+v: out of order or misrouted", name, u, i, op)
						}
						if op.Op == graph.OpInsert {
							res.Inserted++
						} else {
							res.Deleted++
						}
					}
					mu.Lock()
					busy[sc] = false
					mu.Unlock()
					return res
				})
				if len(calls) != nRuns {
					t.Errorf("%s: %d sources applied", name, len(calls))
				}
				for u, c := range calls {
					if c != 1 {
						t.Errorf("%s: source %d applied %d times", name, u, c)
					}
				}
				if got != want {
					t.Errorf("%s: result %+v, want the serial sums %+v", name, got, want)
				}
				if rec != nil {
					rec.checkClosed()
				}
			}
		}
	}
}

// recordingGroups is a RunGroups that checks ApplyPerSource's grouped
// contract as it runs: groups are source mod n.
type recordingGroups struct {
	t      *testing.T
	name   string
	mu     sync.Mutex
	inside []int            // goroutines inside each group's bracket
	runs   []int            // runs applied in each group's open bracket
	last   []graph.VertexID // last source applied in each group
	seen   []bool
}

func newRecordingGroups(t *testing.T, name string, n int) *recordingGroups {
	return &recordingGroups{t: t, name: name, inside: make([]int, n), runs: make([]int, n), last: make([]graph.VertexID, n), seen: make([]bool, n)}
}

func (g *recordingGroups) Groups() int { return len(g.inside) }
func (g *recordingGroups) GroupOf(u graph.VertexID) int {
	return int(u % graph.VertexID(len(g.inside)))
}

func (g *recordingGroups) Enter(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inside[i]++; g.inside[i] > 1 {
		g.t.Errorf("%s: two goroutines inside group %d at once", g.name, i)
	}
}

func (g *recordingGroups) Exit(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.runs[i] > applyChunk {
		g.t.Errorf("%s: one bracket of group %d spanned %d runs, more than %d", g.name, i, g.runs[i], applyChunk)
	}
	g.inside[i]--
	g.runs[i] = 0
}

func (g *recordingGroups) applied(u graph.VertexID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := g.GroupOf(u)
	if g.inside[i] != 1 {
		g.t.Errorf("%s: source %d applied outside a bracket of its group %d", g.name, u, i)
	}
	if g.seen[i] && u <= g.last[i] {
		g.t.Errorf("%s: group %d applied source %d after %d: not ascending", g.name, i, u, g.last[i])
	}
	g.seen[i], g.last[i] = true, u
	g.runs[i]++
}

func (g *recordingGroups) checkClosed() {
	for i, n := range g.inside {
		if n != 0 {
			g.t.Errorf("%s: group %d left with %d open brackets", g.name, i, n)
		}
	}
}

func TestBatchGrowsVertexSpace(t *testing.T) {
	s, _ := New(2, DefaultConfig())
	_, err := s.ApplyBatch([]graph.Update{
		{Op: graph.OpInsert, Src: 9, Dst: 4, Bias: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasEdge(9, 4) {
		t.Error("edge to grown vertex missing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLargeChurnInvariants(t *testing.T) {
	edges := gen.RMAT(150, 3000, gen.DefaultRMAT, 91)
	gen.AssignBiases(edges, 150, gen.BiasConfig{Kind: gen.BiasPowerLaw, Max: 4096})
	g, err := graph.FromEdges(150, edges)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.BuildWorkload(g, gen.UpdMixed, 200, 7, 19)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFromCSR(w.Initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range w.Batches() {
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	// After all updates, sampling still matches encoded distribution on
	// the highest-degree vertex.
	best := graph.VertexID(0)
	for u := graph.VertexID(0); int(u) < 150; u++ {
		if s.Degree(u) > s.Degree(best) {
			best = u
		}
	}
	if s.Degree(best) < 5 {
		t.Skip("graph too sparse after churn")
	}
	want := map[graph.VertexID]float64{}
	total := s.TotalBias(best)
	for dst, m := range destMass(s, best) {
		want[dst] = float64(m) / total
	}
	checkVertexDistribution(t, s, best, want, 150000)
}
