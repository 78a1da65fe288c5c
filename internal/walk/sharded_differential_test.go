// The sharded extension of the PR-1 differential harness: writer
// goroutines feed a growth-inducing update tape through the sharded live
// service while query walkers traverse shard boundaries, and afterwards
// the union of the shard engines must be *equivalent* to a sequential
// core.Sampler replay of the same tape — identical live edge multiset and
// a sampling distribution the chi-square test cannot tell apart.
//
// Equivalence holds for the same reason as the unsharded harness — the
// tape is partitioned by source vertex, per-vertex operations are
// linearizable, and operations on distinct sources commute — plus one new
// ingredient: the router keeps all of a source's updates on one shard
// queue in feed order, so sharding adds no new interleavings per source.
// The tape deliberately references vertices far beyond the initial space,
// exercising block-cyclic ownership and independent shard growth under
// live traffic. Run with -race; the routing and transfer protocol is the
// thing under test.
package walk_test

import (
	"sort"
	"sync"
	"testing"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const (
	sdVerts0   = 600  // initial vertex space the plan is derived from
	sdVertsMax = 1200 // tape references IDs up to here (growth-inducing)
	sdTapeLen  = 8000
	sdWriters  = 4
	sdShards   = 4
	sdSamples  = 120000 // ≥ 1e5 chi-square draws
)

type sdPair struct{ src, dst graph.VertexID }

// buildGrowthTape generates a random update tape over [0, numVertices) in
// which every (src,dst) pair has at most one live instance at any point
// (so deletions are unambiguous and any valid replay agrees edge-for-edge),
// plus a sprinkle of not-found deletions for the tolerant path. With
// numVertices beyond the initial space, inserts double as growth events.
func buildGrowthTape(n, numVertices int, seed uint64) []graph.Update {
	r := xrand.New(seed)
	live := make([]sdPair, 0, n)
	liveAt := make(map[sdPair]int, n)
	tape := make([]graph.Update, 0, n)
	for len(tape) < n {
		roll := r.Float64()
		switch {
		case roll < 0.25 && len(live) > 8:
			i := r.Intn(len(live))
			p := live[i]
			last := len(live) - 1
			live[i] = live[last]
			liveAt[live[i]] = i
			live = live[:last]
			delete(liveAt, p)
			tape = append(tape, graph.Update{Op: graph.OpDelete, Src: p.src, Dst: p.dst})
		case roll < 0.30:
			p := sdPair{graph.VertexID(r.Intn(numVertices)), graph.VertexID(r.Intn(numVertices))}
			if _, ok := liveAt[p]; ok {
				continue
			}
			tape = append(tape, graph.Update{Op: graph.OpDelete, Src: p.src, Dst: p.dst})
		default:
			p := sdPair{graph.VertexID(r.Intn(numVertices)), graph.VertexID(r.Intn(numVertices))}
			if _, ok := liveAt[p]; ok {
				continue
			}
			liveAt[p] = len(live)
			live = append(live, p)
			tape = append(tape, graph.Update{Op: graph.OpInsert, Src: p.src, Dst: p.dst, Bias: uint64(1 + r.Intn(1000))})
		}
	}
	return tape
}

type sdEdge struct {
	src, dst graph.VertexID
	bias     uint64
}

// appendEdges flattens a snapshot into out.
func appendEdges(out []sdEdge, g *graph.CSR) []sdEdge {
	for u := 0; u < g.NumVertices(); u++ {
		vid := graph.VertexID(u)
		dsts := g.Neighbors(vid)
		biases := g.Biases(vid)
		for i := range dsts {
			out = append(out, sdEdge{src: vid, dst: dsts[i], bias: biases[i]})
		}
	}
	return out
}

func sortEdges(es []sdEdge) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.bias < b.bias
	})
}

// TestShardedLiveDifferential is the acceptance harness: ≥4 shards × ≥4
// writers over a growth-inducing tape with concurrent cross-shard query
// walkers, then edge-multiset equality and ≥1e5-draw chi-square agreement
// against a sequential replay.
func TestShardedLiveDifferential(t *testing.T) {
	tape := buildGrowthTape(sdTapeLen, sdVertsMax, 0x5AD0)

	plan := walk.NewShardPlan(sdVerts0, sdShards)
	engines, raw := newShardEngines(t, plan, sdVerts0)
	svc, err := walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
		WalkersPerShard: 2,
		WalkLength:      16,
		Seed:            0xFEED,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Partition the tape by source: each source's events stay with one
	// writer, in tape order — the harness contract under which any writer
	// interleaving is equivalent to the sequential replay.
	parts := make([][]graph.Update, sdWriters)
	for _, up := range tape {
		w := int(up.Src) % sdWriters
		parts[w] = append(parts[w], up)
	}

	done := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < sdWriters; w++ {
		writers.Add(1)
		go func(part []graph.Update) {
			defer writers.Done()
			const chunk = 64
			for lo := 0; lo < len(part); lo += chunk {
				hi := lo + chunk
				if hi > len(part) {
					hi = len(part)
				}
				if err := svc.Feed(part[lo:hi]); err != nil {
					t.Errorf("Feed: %v", err)
					return
				}
			}
		}(parts[w])
	}

	// Query walkers keep crossing shard boundaries while the tape lands,
	// starting anywhere in the post-growth ID space.
	var walkers sync.WaitGroup
	var queries int64
	var qmu sync.Mutex
	for q := 0; q < 4; q++ {
		walkers.Add(1)
		go func(seed uint64) {
			defer walkers.Done()
			r := xrand.New(seed)
			local := int64(0)
			for {
				if local >= 64 {
					select {
					case <-done:
						qmu.Lock()
						queries += local
						qmu.Unlock()
						return
					default:
					}
				}
				start := graph.VertexID(r.Intn(sdVertsMax))
				path, err := svc.Query(start, 16)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
				local++
			}
		}(0xFACE + uint64(q))
	}
	writers.Wait()
	// Feed returns once a batch is routed, so the walkers' first queries
	// may all land on a still-empty graph. Let the tape apply, then query
	// until a walk has crossed shards (bounded by a count, not a clock):
	// on the full graph a 16-step walk almost always does.
	if err := svc.Sync(); err != nil {
		t.Errorf("Sync after feed: %v", err)
	}
	r := xrand.New(0xC0FE)
	for i := 0; i < 1024 && svc.Stats().Transfers == 0 && !t.Failed(); i++ {
		if _, err := svc.Query(graph.VertexID(r.Intn(sdVertsMax)), 16); err != nil {
			t.Errorf("Query: %v", err)
		}
	}
	close(done)
	walkers.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after feed: %v", err)
	}
	st := svc.Stats()
	t.Logf("replayed %d updates under %d writers / %d shards while %d walkers served %d queries (%d transfers, ratio %.3f)",
		st.Updates, sdWriters, sdShards, 4, queries, st.Transfers, st.TransferRatio())
	if st.Updates != int64(len(tape)) || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want %d updates, 0 dropped", st, len(tape))
	}
	if st.Transfers == 0 {
		t.Fatal("no cross-shard transfers — the partition topology was not exercised")
	}

	// Sequential ground truth: the whole tape, one goroutine, streaming
	// path, over a space pre-sized to the tape's maximum.
	seq, err := core.New(sdVertsMax, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ApplyUpdatesStreaming(append([]graph.Update(nil), tape...)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}

	// Chi-square the live service's sampling distribution against the
	// replay's exact probabilities on the highest-degree vertices. Draws
	// go through the full serving path: Query(u, 1) routes to the owner
	// shard and samples one hop.
	type cand struct {
		u graph.VertexID
		d int
	}
	var cands []cand
	for u := 0; u < sdVertsMax; u++ {
		if d := seq.Degree(graph.VertexID(u)); d >= 4 {
			cands = append(cands, cand{graph.VertexID(u), d})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d > cands[j].d })
	if len(cands) > 8 {
		cands = cands[:8]
	}
	if len(cands) == 0 {
		t.Fatal("no test vertices with degree ≥ 4 — tape generator broken")
	}
	perVertex := sdSamples / len(cands)
	for _, c := range cands {
		slotProbs := seq.VertexProbabilities(c.u)
		probByDst := map[graph.VertexID]float64{}
		for slot, p := range slotProbs {
			probByDst[seq.Neighbor(c.u, slot)] += p
		}
		dsts := make([]graph.VertexID, 0, len(probByDst))
		for d := range probByDst {
			dsts = append(dsts, d)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		probs := make([]float64, len(dsts))
		index := make(map[graph.VertexID]int, len(dsts))
		for i, d := range dsts {
			probs[i] = probByDst[d]
			index[d] = i
		}
		observed := make([]int64, len(dsts))
		for i := 0; i < perVertex; i++ {
			path, err := svc.Query(c.u, 1)
			if err != nil {
				t.Fatalf("vertex %d: Query: %v", c.u, err)
			}
			if len(path) != 2 {
				t.Fatalf("vertex %d: degree %d but draw %d returned path %v", c.u, c.d, i, path)
			}
			slot, ok := index[path[1]]
			if !ok {
				t.Fatalf("vertex %d: sampled %d, not a live neighbor", c.u, path[1])
			}
			observed[slot]++
		}
		stat, p, err := stats.ChiSquareGOF(observed, probs, 5)
		if err != nil {
			t.Fatalf("vertex %d: chi-square: %v", c.u, err)
		}
		if p < 1e-4 {
			t.Errorf("vertex %d (degree %d): chi-square stat %.2f p=%.2e — sharded distribution diverges from sequential replay", c.u, c.d, stat, p)
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Edge-multiset equality: the union of the shard engines vs the
	// sequential replay, and every shard's invariants hold after growth.
	var got []sdEdge
	grew := false
	for i, e := range raw {
		if e.NumVertices() > sdVerts0 {
			grew = true
		}
		e.Quiesce(func(s *core.Sampler) {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("shard %d invariants: %v", i, err)
			}
			got = appendEdges(got, s.Snapshot())
		})
	}
	if !grew {
		t.Fatal("no shard engine grew beyond the initial space — tape not growth-inducing")
	}
	want := appendEdges(nil, seq.Snapshot())
	sortEdges(got)
	sortEdges(want)
	if len(got) != len(want) {
		t.Fatalf("edge count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge multiset diverges at %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
