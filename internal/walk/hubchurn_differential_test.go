// The hub-cache invalidation extension of the sharded differential
// harness: a hub-heavy topology whose hottest vertices take a sustained
// stream of bias rewrites and deletions through the live feed while
// query walkers hammer exactly those hubs with the hub caches *enabled*
// (the default). Both cache layers must be demonstrably in play — local
// lock-free hits, epoch-invalidated local views, fabric view traffic —
// and the served state must still match a sequential replay
// edge-for-edge, with a chi-square test unable to tell the served
// sampling distribution from the replay's exact probabilities. Run with
// -race; cache invalidation racing the feed is the thing under test.
package walk_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const (
	hcVerts   = 600
	hcShards  = 4
	hcHubs    = 8
	hcChurn   = 6000 // bias rewrites / delete+reinsert cycles on hub edges
	hcWriters = 4
	hcSamples = 120000 // ≥ 1e5 chi-square draws through the serving path
)

// hcHubIDs spreads the hubs across the block-cyclic ownership ranges so
// hub traffic exercises every shard and every cross-shard pairing.
func hcHubIDs() []graph.VertexID {
	hubs := make([]graph.VertexID, hcHubs)
	for i := range hubs {
		hubs[i] = graph.VertexID(i*(hcVerts/hcHubs) + 5)
	}
	return hubs
}

// buildHubTape returns the build tape (wire every vertex to hubs, hubs
// to each other) and an nChurn-event churn tape: repeated bias rewrites
// (delete + reinsert with a fresh bias — the feed's bias-update idiom)
// and delete/reinsert cycles concentrated on the hub edges. Every
// (src,dst) pair has at most one live instance at any point, so any
// valid replay agrees edge-for-edge.
func buildHubTape(seed uint64, nChurn int) (build, churn []graph.Update) {
	r := xrand.New(seed)
	hubs := hcHubIDs()
	isHub := map[graph.VertexID]bool{}
	for _, h := range hubs {
		isHub[h] = true
	}
	var tape []graph.Update
	type pair struct{ src, dst graph.VertexID }
	live := map[pair]uint64{} // live hub-out edges → current bias
	ins := func(s, d graph.VertexID, b uint64) {
		tape = append(tape, graph.Update{Op: graph.OpInsert, Src: s, Dst: d, Bias: b})
	}
	// Build: every vertex points at two distinct hubs (walks funnel into
	// hubs from anywhere), every hub at every other hub (walks then
	// bounce hub-to-hub across shards) plus a few spokes.
	for v := 0; v < hcVerts; v++ {
		vid := graph.VertexID(v)
		if isHub[vid] {
			continue
		}
		a := hubs[r.Intn(len(hubs))]
		b := hubs[r.Intn(len(hubs))]
		for b == a {
			b = hubs[r.Intn(len(hubs))]
		}
		ins(vid, a, uint64(1+r.Intn(1000)))
		ins(vid, b, uint64(1+r.Intn(1000)))
	}
	for _, h := range hubs {
		for _, g := range hubs {
			if g == h {
				continue
			}
			bias := uint64(1 + r.Intn(1000))
			ins(h, g, bias)
			live[pair{h, g}] = bias
		}
		for k := 0; k < 4; k++ {
			d := graph.VertexID(r.Intn(hcVerts))
			p := pair{h, d}
			if _, ok := live[p]; ok || isHub[d] || d == h {
				continue
			}
			bias := uint64(1 + r.Intn(1000))
			ins(h, d, bias)
			live[p] = bias
		}
	}
	build = tape
	tape = nil
	// Churn: hammer the hottest vertices' out-edges.
	keys := make([]pair, 0, len(live))
	for p := range live {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	gone := map[pair]bool{}
	for n := 0; n < nChurn; n++ {
		p := keys[r.Intn(len(keys))]
		switch {
		case gone[p]:
			// Resurrect a deleted hub edge.
			bias := uint64(1 + r.Intn(1000))
			ins(p.src, p.dst, bias)
			live[p] = bias
			delete(gone, p)
		case r.Coin(0.2):
			// Plain deletion; a later draw may resurrect it.
			tape = append(tape, graph.Update{Op: graph.OpDelete, Src: p.src, Dst: p.dst})
			gone[p] = true
		default:
			// Bias rewrite: delete + reinsert with a fresh bias, adjacent
			// and same-source, so per-source feed order preserves it.
			tape = append(tape, graph.Update{Op: graph.OpDelete, Src: p.src, Dst: p.dst})
			bias := live[p] + uint64(1+r.Intn(1000))
			ins(p.src, p.dst, bias)
			live[p] = bias
		}
	}
	return build, tape
}

func TestHubChurnCacheDifferential(t *testing.T) {
	build, churn := buildHubTape(0xC0FFEE, hcChurn)
	tape := append(append([]graph.Update(nil), build...), churn...)
	hubs := hcHubIDs()

	plan := walk.NewShardPlan(hcVerts, hcShards)
	engines, raw := newShardEngines(t, plan, hcVerts)
	// Cache explicitly on with a low admission threshold and an eager
	// request policy, so every layer engages at this scale.
	svc, err := walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
		WalkersPerShard: 2,
		WalkLength:      16,
		Seed:            0x0FF1CE,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase A — build: land the hub topology and make it visible.
	if err := svc.Feed(append([]graph.Update(nil), build...)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after build: %v", err)
	}

	// Phase B — warm: hub queries fill every crew's view LRU on a
	// stable graph, so the churn that follows *must* invalidate cached
	// views (the deterministic seed of the LocalStale assertion below).
	warmR := xrand.New(0xEA7)
	for i := 0; i < 400; i++ {
		if _, err := svc.Query(hubs[warmR.Intn(len(hubs))], 16); err != nil {
			t.Fatalf("warm query: %v", err)
		}
	}
	// The cache tallies ride barrier acks: Sync before reading them.
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after warm: %v", err)
	}
	if st := svc.Stats(); st.Cache.LocalHits == 0 {
		t.Fatal("warm phase produced no cache hits — the crew cache is not in play")
	}

	// Phase C — churn, partitioned by source, each source's events with
	// one writer in tape order (the differential-equivalence contract),
	// with walkers hammering the hubs concurrently.
	parts := make([][]graph.Update, hcWriters)
	for _, up := range churn {
		w := int(up.Src) % hcWriters
		parts[w] = append(parts[w], up)
	}
	done := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < hcWriters; w++ {
		writers.Add(1)
		go func(part []graph.Update) {
			defer writers.Done()
			const chunk = 32
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

	// Walkers start on the hubs under churn: every hop at a hub runs
	// through the view caches while the writers invalidate them.
	var walkers sync.WaitGroup
	for q := 0; q < 4; q++ {
		walkers.Add(1)
		go func(seed uint64) {
			defer walkers.Done()
			r := xrand.New(seed)
			n := 0
			for {
				if n >= 64 {
					select {
					case <-done:
						return
					default:
					}
				}
				start := hubs[r.Intn(len(hubs))]
				path, err := svc.Query(start, 16)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
				n++
			}
		}(0xD00D + uint64(q))
	}
	writers.Wait()
	close(done)
	walkers.Wait()
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after churn: %v", err)
	}
	st := svc.Stats()
	if st.Updates != int64(len(tape)) || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want %d updates, 0 dropped", st, len(tape))
	}

	// Post-churn hub walks on a now-stable graph: remote views survive
	// their watermark checks, so the fabric-side cache must show hits.
	// The fill path is asynchronous (crossings → request → owner's view
	// loop → install), and on a loaded single-core machine the view
	// loops can trail the query stream — so drive rounds until hits
	// appear instead of assuming a fixed warm-up is enough.
	r := xrand.New(0xAB)
	for round := 0; round < 60; round++ {
		for i := 0; i < 500; i++ {
			if _, err := svc.Query(hubs[r.Intn(len(hubs))], 16); err != nil {
				t.Fatalf("post-churn query: %v", err)
			}
		}
		if err := svc.Sync(); err != nil { // the cache tallies ride barrier acks
			t.Fatalf("post-churn Sync: %v", err)
		}
		if svc.Stats().Cache.RemoteHits > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond) // let the view loops drain
	}
	st = svc.Stats()
	t.Logf("cache under churn: %d local hits (%d stale), %d remote-view hops (%d stale), %d view requests / %d served, %d transfers (ratio %.3f)",
		st.Cache.LocalHits, st.Cache.LocalStale, st.Cache.RemoteHits, st.Cache.RemoteStale,
		st.Cache.ViewRequests, st.Cache.ViewsServed, st.Transfers, st.TransferRatio())
	if st.Cache.LocalHits == 0 {
		t.Error("hub churn exercised no local cache hits — the crew cache is not in play")
	}
	if st.Cache.LocalStale == 0 {
		t.Error("sustained hub churn invalidated no cached views — epoch validation is not in play")
	}
	if st.Cache.ViewRequests == 0 || st.Cache.ViewsServed == 0 {
		t.Errorf("no fabric view traffic (req %d, served %d) — the remote cache protocol is not in play",
			st.Cache.ViewRequests, st.Cache.ViewsServed)
	}
	if st.Cache.RemoteHits == 0 {
		t.Error("no hub hops served from remote views on a post-churn stable graph")
	}

	// Sequential ground truth and chi-square through the serving path.
	seq, err := core.New(hcVerts, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ApplyUpdatesStreaming(append([]graph.Update(nil), tape...)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	perVertex := hcSamples / len(hubs)
	for _, u := range hubs {
		if seq.Degree(u) < 4 {
			t.Fatalf("hub %d ended with degree %d — tape generator broken", u, seq.Degree(u))
		}
		probByDst := map[graph.VertexID]float64{}
		for slot, p := range seq.VertexProbabilities(u) {
			probByDst[seq.Neighbor(u, slot)] += p
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
			path, err := svc.Query(u, 1)
			if err != nil {
				t.Fatalf("hub %d: Query: %v", u, err)
			}
			if len(path) != 2 {
				t.Fatalf("hub %d: draw %d returned path %v", u, i, path)
			}
			slot, ok := index[path[1]]
			if !ok {
				t.Fatalf("hub %d: sampled %d, not a live neighbor", u, path[1])
			}
			observed[slot]++
		}
		stat, p, err := stats.ChiSquareGOF(observed, probs, 5)
		if err != nil {
			t.Fatalf("hub %d: chi-square: %v", u, err)
		}
		if p < 1e-4 {
			t.Errorf("hub %d: chi-square stat %.2f p=%.2e — cached serving distribution diverges from sequential replay", u, stat, p)
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Edge-multiset equality: the union of the shard engines vs the
	// sequential replay, plus per-shard invariants after the churn.
	var got []sdEdge
	for i, e := range raw {
		e.Quiesce(func(s *core.Sampler) {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("shard %d invariants: %v", i, err)
			}
			got = appendEdges(got, s.Snapshot())
		})
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
