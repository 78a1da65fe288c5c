package walk

import (
	"math"
	"testing"

	"github.com/bingo-rw/bingo/internal/baseline"
	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// buildEngine makes a Bingo engine over a small random graph.
func buildEngine(t *testing.T, v int, e int64, seed uint64) *core.Sampler {
	t.Helper()
	edges := gen.RMAT(v, e, gen.DefaultRMAT, seed)
	gen.AssignBiases(edges, v, gen.BiasConfig{Kind: gen.BiasDegree})
	g, err := graph.FromEdges(v, edges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lineGraph builds 0→1→2→…→n-1 (no out-edge at the end).
func lineGraph(t *testing.T, n int) *core.Sampler {
	t.Helper()
	s, err := core.New(n, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if err := s.Insert(graph.VertexID(i), graph.VertexID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestDeepWalkLengthAndDeadEnd(t *testing.T) {
	s := lineGraph(t, 10)
	res := DeepWalk(s, Config{Length: 80, Starts: []graph.VertexID{0}, Seed: 1})
	// The walk must stop at the dead end after 9 steps.
	if res.Steps != 9 {
		t.Errorf("steps = %d, want 9", res.Steps)
	}
	res = DeepWalk(s, Config{Length: 4, Starts: []graph.VertexID{0}, Seed: 1})
	if res.Steps != 4 {
		t.Errorf("steps = %d, want 4 (length cap)", res.Steps)
	}
	if res.Walkers != 1 {
		t.Errorf("walkers = %d", res.Walkers)
	}
}

func TestDeepWalkVisits(t *testing.T) {
	s := lineGraph(t, 5)
	res := DeepWalk(s, Config{Length: 80, Starts: []graph.VertexID{0}, Seed: 1, CountVisits: true})
	for v := 0; v < 5; v++ {
		if res.Visits[v] != 1 {
			t.Errorf("visits[%d] = %d, want 1", v, res.Visits[v])
		}
	}
}

func TestDeepWalkDefaultStartsAllVertices(t *testing.T) {
	s := buildEngine(t, 50, 400, 3)
	res := DeepWalk(s, Config{Length: 5, Seed: 2})
	if res.Walkers != 50 {
		t.Errorf("walkers = %d, want 50", res.Walkers)
	}
}

func TestDeepWalkDeterministicAcrossWorkers(t *testing.T) {
	s := buildEngine(t, 100, 1000, 5)
	r1 := DeepWalk(s, Config{Length: 20, Seed: 9, Workers: 1, CountVisits: true})
	r4 := DeepWalk(s, Config{Length: 20, Seed: 9, Workers: 4, CountVisits: true})
	if r1.Steps != r4.Steps {
		t.Fatalf("steps %d vs %d across worker counts", r1.Steps, r4.Steps)
	}
	for v := range r1.Visits {
		if r1.Visits[v] != r4.Visits[v] {
			t.Fatalf("visits[%d] %d vs %d", v, r1.Visits[v], r4.Visits[v])
		}
	}
}

// serialDeepWalk is the reference DeepWalk: walker i on stream
// master.Split(i), one Sample per hop, one walker at a time.
func serialDeepWalk(e Engine, starts []graph.VertexID, length int, seed uint64) (int64, []int64) {
	master := xrand.New(seed)
	visits := make([]int64, e.NumVertices())
	var steps int64
	for i, cur := range starts {
		r := master.Split(uint64(i))
		visits[cur]++
		for hop := 0; hop < length; hop++ {
			next, ok := e.Sample(cur, r)
			if !ok {
				break
			}
			steps++
			cur = next
			visits[cur]++
		}
	}
	return steps, visits
}

// TestDeepWalkMatchesSerialReference requires DeepWalk's Steps and Visits
// to equal the serial reference on every engine kind — core.Sampler
// (staged frontier draw, integer and float), a baseline (slot by slot),
// concurrent.Engine (per-vertex batches) — at 1, 2 and 4 workers. The
// start set repeats vertices and exceeds a frontier per worker, so slots
// retire at dead ends and refill.
func TestDeepWalkMatchesSerialReference(t *testing.T) {
	const n = 1500
	edges := gen.RMAT(n, 12000, gen.DefaultRMAT, 11)
	gen.AssignBiases(edges, n, gen.BiasConfig{Kind: gen.BiasPowerLaw, Max: 4096, Float: true, Seed: 3})
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	intS, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fcfg := core.DefaultConfig()
	fcfg.FloatBias = true
	fltS, err := core.NewFromCSR(g, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]graph.VertexID, 0, 3*n)
	for i := 0; i < 3*n; i++ {
		starts = append(starts, graph.VertexID(i*7%n))
	}
	for _, tc := range []struct {
		name string
		e    Engine
	}{
		{"core-int", intS},
		{"core-float", fltS},
		{"RebuildITS", baseline.NewRebuildITS(g)},
		{"concurrent", concurrent.Wrap(wrapped, concurrent.Config{})},
	} {
		wantSteps, wantVisits := serialDeepWalk(tc.e, starts, 40, 17)
		for _, workers := range []int{1, 2, 4} {
			res := DeepWalk(tc.e, Config{Length: 40, Starts: starts, Seed: 17, Workers: workers, CountVisits: true})
			if res.Steps != wantSteps {
				t.Fatalf("%s workers=%d: %d steps, reference %d", tc.name, workers, res.Steps, wantSteps)
			}
			for v := range wantVisits {
				if res.Visits[v] != wantVisits[v] {
					t.Fatalf("%s workers=%d: visits[%d] = %d, reference %d",
						tc.name, workers, v, res.Visits[v], wantVisits[v])
				}
			}
		}
		if wantSteps >= int64(len(starts))*40 {
			t.Fatalf("%s: no walk dead-ended", tc.name)
		}
	}
}

func TestPPRGeometricLength(t *testing.T) {
	// On a self-loop graph walks never dead-end; expected walk length is
	// 1/TermProb - 1 ≈ 79 with the default 1/80.
	s, err := core.New(1, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	starts := make([]graph.VertexID, 3000)
	res := PPR(s, Config{Starts: starts, Seed: 11})
	mean := float64(res.Steps) / float64(res.Walkers)
	if math.Abs(mean-79) > 4 {
		t.Errorf("mean PPR length %v, want ≈79", mean)
	}
}

func TestPPRVisitsConcentrateNearSource(t *testing.T) {
	// Star graph: source 0 connects to 1..10, each leaf returns to 0.
	s, _ := core.New(11, core.DefaultConfig())
	for i := 1; i <= 10; i++ {
		if err := s.Insert(0, graph.VertexID(i), 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(graph.VertexID(i), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	starts := make([]graph.VertexID, 2000) // all from vertex 0
	res := PPR(s, Config{Starts: starts, Seed: 13, CountVisits: true})
	// Vertex 0 should hold about half the visit mass (alternating walk).
	var total int64
	for _, c := range res.Visits {
		total += c
	}
	frac := float64(res.Visits[0]) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("source visit fraction %v, want ≈0.5", frac)
	}
}

func TestNode2VecPQLimits(t *testing.T) {
	// Triangle 0-1-2 plus a pendant 1-3: from 1 after arriving 0→1,
	// candidates are 0 (dist 0), 2 (dist 1, triangle), 3 (dist 2).
	s, _ := core.New(4, core.DefaultConfig())
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}, {1, 3}, {3, 1}} {
		if err := s.Insert(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	count := func(p, q float64) (back, tri, out int) {
		// Two-hop walks from 0: count the second hop's choice when the
		// first hop lands on 1.
		starts := make([]graph.VertexID, 60000)
		res := Node2Vec(s, Config{Length: 2, Starts: starts, Seed: 7, P: p, Q: q, CountVisits: true})
		_ = res
		// Visits can't separate hops; instead run manual two-hop logic
		// is overkill — use visit counts of 3 (only reachable via the
		// pendant) as the exploration proxy.
		return int(res.Visits[0]), int(res.Visits[2]), int(res.Visits[3])
	}
	_, _, outLowQ := count(1, 0.25) // low q encourages exploration
	_, _, outHighQ := count(1, 8)   // high q suppresses it
	if outLowQ <= outHighQ {
		t.Errorf("pendant visits: lowQ %d should exceed highQ %d", outLowQ, outHighQ)
	}
	backLowP, _, _ := count(0.1, 1) // low p encourages backtracking
	backHighP, _, _ := count(8, 1)
	if backLowP <= backHighP {
		t.Errorf("backtrack visits: lowP %d should exceed highP %d", backLowP, backHighP)
	}
}

func TestNode2VecDeadEnd(t *testing.T) {
	s := lineGraph(t, 3) // 0→1→2, 2 is a dead end
	res := Node2Vec(s, Config{Length: 80, Starts: []graph.VertexID{0}, Seed: 1})
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2", res.Steps)
	}
}

func TestSimpleSampling(t *testing.T) {
	s := buildEngine(t, 30, 300, 21)
	starts := []graph.VertexID{}
	for u := 0; u < 30; u++ {
		if s.Degree(graph.VertexID(u)) > 0 {
			starts = append(starts, graph.VertexID(u))
		}
	}
	res := SimpleSampling(s, Config{Length: 100, Starts: starts, Seed: 3})
	if res.Steps != int64(100*len(starts)) {
		t.Errorf("steps = %d, want %d", res.Steps, 100*len(starts))
	}
}

func TestRunDispatch(t *testing.T) {
	s := buildEngine(t, 20, 100, 9)
	for _, app := range []App{AppDeepWalk, AppNode2Vec, AppPPR, AppSimple} {
		res := Run(app, s, Config{Length: 5, Seed: 1})
		if res.Walkers != 20 {
			t.Errorf("%v: walkers = %d", app, res.Walkers)
		}
	}
	if AppDeepWalk.String() != "DeepWalk" || AppPPR.String() != "PPR" {
		t.Error("App strings wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Length != 80 || c.TermProb != 1.0/80 || c.P != 0.5 || c.Q != 2 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestDeepWalkPathsEmission(t *testing.T) {
	s := lineGraph(t, 4) // 0→1→2→3
	var paths [][]graph.VertexID
	res := DeepWalkPaths(s, Config{Length: 10, Seed: 1}, func(p []graph.VertexID) {
		paths = append(paths, append([]graph.VertexID(nil), p...))
	})
	if len(paths) != 4 || res.Walkers != 4 {
		t.Fatalf("paths %d, walkers %d", len(paths), res.Walkers)
	}
	// Walk from 0 follows the whole line; from 3 stays put.
	if len(paths[0]) != 4 || paths[0][3] != 3 {
		t.Errorf("path from 0 = %v", paths[0])
	}
	if len(paths[3]) != 1 || paths[3][0] != 3 {
		t.Errorf("path from 3 = %v", paths[3])
	}
	if res.Steps != 3+2+1+0 {
		t.Errorf("steps = %d, want 6", res.Steps)
	}
}

func TestAppStringUnknown(t *testing.T) {
	if App(42).String() != "App(42)" {
		t.Error("unknown app string wrong")
	}
	if AppNode2Vec.String() != "node2vec" || AppSimple.String() != "simple" {
		t.Error("app strings wrong")
	}
}
