// The live-migration extension of the sharded differential harness: a
// *hub-skewed* growth tape concentrates degree mass and walk traffic on
// the blocks one shard owns, scripted migrations move two of those blocks
// live — while writers feed, walkers cross shards, and the hub caches
// serve views — and afterwards the distributed state must still
// be equivalent to a sequential replay: identical live edge multiset and
// a sampling distribution a 120k-draw chi-square cannot tell apart.
//
// This is the full three-way consistency argument under test at once:
// walkers mid-hand-off across an epoch flip (re-routed, never lost, and
// a dead-end raced with extraction re-dispatches), per-source-ordered
// routed updates across the ownership flip (pre-flip updates ride the
// extracted rows, post-flip updates queue behind the recipient's
// commit), and hub-view invalidation (block views dropped at commit,
// straggler replies refused by current-owner checks). Run with -race on
// both the in-process and the TCP fabric.
package walk_test

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const (
	rbVerts0   = 600  // initial space → range size 150 at 4 shards
	rbVertsMax = 1200 // growth target; block 4 = [600, 750) is minted live
	rbTapeLen  = 8000
	rbWriters  = 4
	rbShards   = 4
	rbSamples  = 120000 // ≥ 1e5 chi-square draws
	// Under the race detector every Query is a serial round trip whose
	// cost the instrumentation multiplies several-fold — over loopback
	// TCP on a single-core box, 120k draws alone exceed the package
	// timeout. 3k draws per vertex keeps every expected cell count far
	// above the chi-square floor while fitting the budget.
	rbSamplesRace = 24000
)

// rbHotVertex draws from the hot set: the two blocks shard 0 owns under
// the initial plan — block 0 ([0, 150), bootstrap-time) and block 4
// ([600, 750), minted by growth). The scripted migrations move one each,
// so one flip lands on a bootstrap-time block and one on a grown block.
func rbHotVertex(r *xrand.RNG) graph.VertexID {
	if r.Coin(0.5) {
		return graph.VertexID(r.Intn(150))
	}
	return graph.VertexID(600 + r.Intn(150))
}

// buildHubSkewTape is buildGrowthTape with the paper's serving skew
// dialed in: three quarters of the inserts source from the hot blocks
// (and mostly land there too, so walks dwell on them), the rest spread
// over the whole growth space. Every (src,dst) pair still has at most
// one live instance, so any valid replay agrees edge-for-edge.
func buildHubSkewTape(n int, seed uint64) []graph.Update {
	r := xrand.New(seed)
	live := make([]sdPair, 0, n)
	liveAt := make(map[sdPair]int, n)
	tape := make([]graph.Update, 0, n)
	pick := func() sdPair {
		if r.Coin(0.75) {
			src := rbHotVertex(r)
			if r.Coin(0.7) {
				return sdPair{src, rbHotVertex(r)}
			}
			return sdPair{src, graph.VertexID(r.Intn(rbVertsMax))}
		}
		return sdPair{graph.VertexID(r.Intn(rbVertsMax)), graph.VertexID(r.Intn(rbVertsMax))}
	}
	for len(tape) < n {
		roll := r.Float64()
		switch {
		case roll < 0.20 && len(live) > 8:
			i := r.Intn(len(live))
			p := live[i]
			last := len(live) - 1
			live[i] = live[last]
			liveAt[live[i]] = i
			live = live[:last]
			delete(liveAt, p)
			tape = append(tape, graph.Update{Op: graph.OpDelete, Src: p.src, Dst: p.dst})
		default:
			p := pick()
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

// The scripted migrations every differential in this file and in
// multicoord_differential_test.go commits: block 0 moves while the tape is
// half fed, block 4 (minted by growth) once it is fully fed, both while
// queries run. Scripting them makes the flips certain and reproducible:
// what these tests guard is exactness across a flip.
var (
	rbMidMove  = rbMove{block: 0, to: 1}
	rbLateMove = rbMove{block: 4, to: 2}
)

// rbMove is one scripted migration: ownership block `block` moves to
// shard `to`.
type rbMove struct {
	block uint64
	to    int
}

// rbFeed feeds tape through rbWriters concurrent writers (writer w owns
// the sources ≡ w mod rbWriters, so per-source order holds) and commits
// rbMidMove once half the tape has been routed: an ownership flip with
// updates in flight on both sides of it. It returns when every writer is
// done; failures are reported with t.Errorf.
func rbFeed(t *testing.T, svc *walk.ShardedLiveService, tape []graph.Update) {
	t.Helper()
	parts := make([][]graph.Update, rbWriters)
	for _, up := range tape {
		w := int(up.Src) % rbWriters
		parts[w] = append(parts[w], up)
	}
	var fed atomic.Int64
	var halfOnce sync.Once
	half := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < rbWriters; w++ {
		writers.Add(1)
		go func(part []graph.Update) {
			defer writers.Done()
			const chunk = 64
			for lo := 0; lo < len(part); lo += chunk {
				hi := min(lo+chunk, len(part))
				if err := svc.Feed(part[lo:hi]); err != nil {
					t.Errorf("Feed: %v", err)
					return
				}
				if fed.Add(int64(hi-lo)) >= int64(len(tape)/2) {
					halfOnce.Do(func() { close(half) })
				}
			}
		}(parts[w])
	}
	finished := make(chan struct{})
	go func() { writers.Wait(); close(finished) }()
	select {
	case <-half:
	case <-finished:
	}
	rbMigrate(t, svc, rbMidMove)
	<-finished
}

// rbMigrate commits one scripted migration, reporting failure with
// t.Errorf so the caller can stop its query storm before failing.
func rbMigrate(t *testing.T, svc *walk.ShardedLiveService, m rbMove) {
	t.Helper()
	if err := svc.Migrate(m.block, m.to); err != nil {
		t.Errorf("Migrate(%+v): %v", m, err)
	}
}

// runRebalanceDifferential drives the harness against svc and returns
// the final stats; dump reads the distributed edge state back after the
// walks (before Close for the remote service, after Close for inproc —
// the caller picks).
func runRebalanceDifferential(t *testing.T, svc *walk.ShardedLiveService, tape []graph.Update) walk.ShardedLiveStats {
	t.Helper()

	// Query walkers start (mostly) on the hot blocks while the tape lands
	// and both scripted flips commit under them.
	done := make(chan struct{})
	var walkers sync.WaitGroup
	for q := 0; q < 4; q++ {
		walkers.Add(1)
		go func(seed uint64) {
			defer walkers.Done()
			r := xrand.New(seed)
			for i := 0; ; i++ {
				if i%64 == 0 {
					select {
					case <-done:
						return
					default:
					}
				}
				start := graph.VertexID(r.Intn(rbVertsMax))
				if r.Coin(0.85) {
					start = rbHotVertex(r)
				}
				path, err := svc.Query(start, 16)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
			}
		}(0xBA1A + uint64(q))
	}
	rbFeed(t, svc, tape)
	rbMigrate(t, svc, rbLateMove)
	close(done)
	walkers.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after feed: %v", err)
	}

	st := svc.Stats()
	plan := svc.LivePlan()
	t.Logf("replayed %d updates under %d writers / %d shards; %d migrations (%d edges shipped, plan epoch %d), shard steps %v, %d transfers",
		st.Updates, rbWriters, rbShards, st.Migration.Migrations, st.Migration.MovedEdges, st.Migration.PlanEpoch, st.ShardSteps, st.Transfers)
	if st.Updates != int64(len(tape)) || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want %d updates, 0 dropped", st, len(tape))
	}
	if st.Migration.Migrations != 2 || st.Migration.PlanEpoch != 2 {
		t.Fatalf("want the 2 scripted migrations committed: %+v", st.Migration)
	}
	if plan.Epoch != st.Migration.PlanEpoch || len(plan.Overlay) != 2 {
		t.Fatalf("live plan %+v does not reflect %d migrations", plan, st.Migration.Migrations)
	}
	if st.Transfers == 0 {
		t.Fatal("no cross-shard transfers — the partition topology was not exercised")
	}

	// Chi-square the serving distribution against the sequential replay
	// on the highest-degree vertices (hub-skew puts them on migrated
	// blocks, so these draws cross the moved ownership).
	seq := rbSequentialReplay(t, tape)
	type cand struct {
		u graph.VertexID
		d int
	}
	var cands []cand
	for u := 0; u < rbVertsMax; u++ {
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
	moved := 0
	for _, c := range cands {
		if _, ok := plan.Overlay[plan.BlockOf(c.u)]; ok {
			moved++
		}
	}
	t.Logf("chi-square over %d vertices, %d of them on migrated blocks", len(cands), moved)
	samples := rbSamples
	if raceDetectorEnabled {
		samples = rbSamplesRace
	}
	perVertex := samples / len(cands)
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
			t.Errorf("vertex %d (degree %d): chi-square stat %.2f p=%.2e — migrated distribution diverges from sequential replay", c.u, c.d, stat, p)
		}
	}
	return svc.Stats()
}

// rbSequentialReplay builds the single-engine ground truth.
func rbSequentialReplay(t *testing.T, tape []graph.Update) *core.Sampler {
	t.Helper()
	seq, err := core.New(rbVertsMax, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ApplyUpdatesStreaming(append([]graph.Update(nil), tape...)); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	return seq
}

// rbAssertEdgeEquality compares a distributed edge multiset against the
// sequential replay, edge for edge.
func rbAssertEdgeEquality(t *testing.T, got []sdEdge, tape []graph.Update) {
	t.Helper()
	seq := rbSequentialReplay(t, tape)
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

// TestRebalanceLiveDifferentialInproc is the acceptance harness over the
// in-process fabric.
func TestRebalanceLiveDifferentialInproc(t *testing.T) {
	tape := buildHubSkewTape(rbTapeLen, 0x5EED)
	plan := walk.NewShardPlan(rbVerts0, rbShards)
	engines, raw := newShardEngines(t, plan, rbVerts0)
	svc, err := walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
		WalkersPerShard: 2,
		WalkLength:      16,
		Seed:            0xFEED,
	})
	if err != nil {
		t.Fatal(err)
	}
	runRebalanceDifferential(t, svc, tape)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Edge-multiset equality: migrations moved rows between engines, but
	// the union must be exactly the sequential replay; every engine's
	// invariants hold, and at least one grew past the initial space.
	var got []sdEdge
	grew := false
	for i, e := range raw {
		if e.NumVertices() > rbVerts0 {
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
	rbAssertEdgeEquality(t, got, tape)
}

// TestRebalanceLiveDifferentialTCP is the same harness over the tcpgob
// fabric: the shard nodes run behind real loopback sockets (the frames,
// handshake, and peer streams `bingowalk -shard-serve` daemons speak),
// and the migration protocol's offer/block/commit cross the wire.
func TestRebalanceLiveDifferentialTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback daemons in -short mode")
	}
	t.Parallel()
	tape := buildHubSkewTape(rbTapeLen, 0x5EED)
	plan := walk.NewShardPlan(rbVerts0, rbShards)

	listeners := make([]*tcpgob.Listener, rbShards)
	addrs := make([]string, rbShards)
	for i := 0; i < rbShards; i++ {
		l, err := tcpgob.Listen("127.0.0.1:0", i, rbShards)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	var nodes sync.WaitGroup
	for i := 0; i < rbShards; i++ {
		nodes.Add(1)
		go func(i int) {
			defer nodes.Done()
			defer listeners[i].Close()
			sc, hello, err := listeners[i].Accept()
			if err != nil {
				return
			}
			s, err := core.New(hello.NumVertices, core.DefaultConfig())
			if err != nil {
				sc.Close()
				return
			}
			e := concurrent.Wrap(s, concurrent.Config{})
			if _, err := walk.RunShardNode(e, walk.PlanFromHello(hello), i, sc, 2, hello.Cache); err != nil {
				t.Errorf("shard %d: %v", i, err)
			}
		}(i)
	}
	port, err := tcpgob.Dial(addrs, fabric.Hello{
		RangeSize:   plan.RangeSize,
		NumVertices: rbVerts0,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := walk.NewShardedLiveServiceOver(port, nil, plan, rbVerts0, walk.ShardedLiveConfig{
		WalkLength: 16,
		Seed:       0xFEED,
	})
	if err != nil {
		t.Fatal(err)
	}
	runRebalanceDifferential(t, svc, tape)

	// Edge read-back through the dump barrier *before* Close: the
	// daemons' engines are reachable only through the fabric.
	perShard, err := svc.DumpEdges()
	if err != nil {
		t.Fatalf("DumpEdges: %v", err)
	}
	if svc.NumVertices() <= rbVerts0 {
		t.Fatal("no daemon grew beyond the initial space — tape not growth-inducing")
	}
	var got []sdEdge
	for _, edges := range perShard {
		for _, ed := range edges {
			got = append(got, sdEdge{src: ed.Src, dst: ed.Dst, bias: ed.Bias})
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	nodes.Wait()
	rbAssertEdgeEquality(t, got, tape)
}
