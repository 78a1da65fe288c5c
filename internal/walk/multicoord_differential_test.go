// The multi-coordinator extension of the live-migration differential harness:
// read-coordinators attach to the running shard set and serve queries
// *while* the write-coordinator feeds a hub-skewed growth tape and
// scripted migrations move the hot blocks live. Afterwards the
// distributed state must still match a sequential replay edge-for-edge,
// and the sampling distribution served *through a reader* — hops from
// its broadcast-validated hub-view cache and shard-launched remainders
// alike — must be one a 120k-draw chi-square cannot tell from the
// replay's exact probabilities.
//
// The reader-specific consistency claims under test: the broadcast
// stream keeps a reader's plan epoch, overlay, and watermark vector
// valid across migrations (launches toward moved blocks re-route, cached
// views of moved blocks drop at the flip), bounded staleness holds
// (WaitApplied past the writer's post-Sync stamp means the reader serves
// nothing older), and a reader's death is invisible to the write session
// and its sibling readers. Run with -race on both fabrics.
package walk_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// runMultiCoordDifferential drives the hub-skewed growth tape through
// the write service while every reader serves a concurrent query storm,
// commits the two scripted migrations mid-tape, syncs, verifies bounded
// staleness through each reader, and chi-squares the served sampling
// distribution drawn through the readers (round-robin) against the
// sequential replay.
func runMultiCoordDifferential(t *testing.T, svc *walk.ShardedLiveService, readers []*walk.ReaderService, tape []graph.Update) {
	t.Helper()

	// Every reader serves a hot-block query storm while the tape lands
	// and both scripted flips commit under it.
	done := make(chan struct{})
	var storms sync.WaitGroup
	for ri, rd := range readers {
		storms.Add(1)
		go func(ri int, rd *walk.ReaderService) {
			defer storms.Done()
			r := xrand.New(0xBEAD + uint64(ri))
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
				path, err := rd.Query(start, 16)
				if err != nil {
					t.Errorf("reader %d: Query: %v", ri, err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("reader %d: path %v does not begin at %d", ri, path, start)
					return
				}
			}
		}(ri, rd)
	}
	rbFeed(t, svc, tape)
	rbMigrate(t, svc, rbLateMove)
	close(done)
	storms.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after feed: %v", err)
	}

	st := svc.Stats()
	livePlan := svc.LivePlan()
	t.Logf("replayed %d updates with %d readers attached; %d migrations (plan epoch %d), shard steps %v",
		st.Updates, len(readers), st.Migration.Migrations, st.Migration.PlanEpoch, st.ShardSteps)
	if st.Updates != int64(len(tape)) || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want %d updates, 0 dropped", st, len(tape))
	}
	if st.Migration.Migrations != 2 || len(livePlan.Overlay) != 2 {
		t.Fatalf("want the 2 scripted migrations committed: %+v, overlay %v", st.Migration, livePlan.Overlay)
	}

	// Bounded staleness: the write side's post-Sync stamp covers the
	// whole tape; each reader must reach it (the barrier-completion
	// broadcast carries it) and report the migrated plan epoch.
	stamp := svc.AppliedStamp()
	for ri, rd := range readers {
		if err := rd.WaitApplied(stamp); err != nil {
			t.Fatalf("reader %d: WaitApplied(%d): %v", ri, stamp, err)
		}
		waitFor := time.Now().Add(10 * time.Second)
		for rd.Stats().PlanEpoch != livePlan.Epoch && time.Now().Before(waitFor) {
			time.Sleep(5 * time.Millisecond)
		}
		rst := rd.Stats()
		if rst.Applied < stamp {
			t.Fatalf("reader %d: applied stamp %d < write stamp %d", ri, rst.Applied, stamp)
		}
		if rst.PlanEpoch != livePlan.Epoch {
			t.Fatalf("reader %d: plan epoch %d, write session at %d", ri, rst.PlanEpoch, livePlan.Epoch)
		}
		if rst.Queries == 0 || rst.Broadcasts == 0 {
			t.Fatalf("reader %d served nothing: %+v", ri, rst)
		}
	}

	// Chi-square the distribution served through the readers against the
	// sequential replay on the highest-degree vertices (hub-skew puts
	// them on migrated blocks, so draws cross the moved ownership and
	// exercise reader-cached views of the new owner's state).
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
			path, err := readers[i%len(readers)].Query(c.u, 1)
			if err != nil {
				t.Fatalf("vertex %d: reader Query: %v", c.u, err)
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
			t.Errorf("vertex %d (degree %d): chi-square stat %.2f p=%.2e — reader-served distribution diverges from sequential replay",
				c.u, c.d, stat, p)
		}
	}
}

// TestMultiCoordDifferentialInproc runs the harness on the in-process
// fabric: two readers attached to a ShardedLiveService.
func TestMultiCoordDifferentialInproc(t *testing.T) {
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
	var readers []*walk.ReaderService
	for i := 0; i < 2; i++ {
		rd, err := svc.AttachReader(walk.ReaderConfig{WalkLength: 16, Seed: 0xAB + uint64(i)})
		if err != nil {
			t.Fatalf("AttachReader %d: %v", i, err)
		}
		readers = append(readers, rd)
	}
	runMultiCoordDifferential(t, svc, readers, tape)
	for _, rd := range readers {
		if err := rd.Close(); err != nil {
			t.Fatalf("reader Close: %v", err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got []sdEdge
	for i, e := range raw {
		e.Quiesce(func(s *core.Sampler) {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("shard %d invariants: %v", i, err)
			}
			got = appendEdges(got, s.Snapshot())
		})
	}
	rbAssertEdgeEquality(t, got, tape)
}

// TestMultiCoordDifferentialTCP runs the harness over the tcpgob fabric:
// the shard nodes live behind real loopback sockets, the write session
// dials them, and two readers attach with DialReader — separate
// sessions, nonce-fenced, retires and view replies routed by origin.
func TestMultiCoordDifferentialTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback daemons and a reader chi-square in -short mode")
	}
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
	var readers []*walk.ReaderService
	for i := 0; i < 2; i++ {
		rp, err := tcpgob.DialReader(addrs, fabric.Hello{})
		if err != nil {
			t.Fatalf("DialReader %d: %v", i, err)
		}
		rd, err := walk.NewReaderService(rp, walk.ReaderConfig{WalkLength: 16, Seed: 0xAB + uint64(i)})
		if err != nil {
			t.Fatalf("NewReaderService %d: %v", i, err)
		}
		readers = append(readers, rd)
	}
	runMultiCoordDifferential(t, svc, readers, tape)

	perShard, err := svc.DumpEdges()
	if err != nil {
		t.Fatalf("DumpEdges: %v", err)
	}
	var got []sdEdge
	for _, edges := range perShard {
		for _, ed := range edges {
			got = append(got, sdEdge{src: ed.Src, dst: ed.Dst, bias: ed.Bias})
		}
	}
	for _, rd := range readers {
		if err := rd.Close(); err != nil {
			t.Fatalf("reader Close: %v", err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	nodes.Wait()
	rbAssertEdgeEquality(t, got, tape)
}

// TestReaderCrashIsolation kills one reader in the middle of its query
// storm and requires the write session, the shards, and the sibling
// reader to keep serving as if nothing happened.
func TestReaderCrashIsolation(t *testing.T) {
	tape := buildHubSkewTape(4000, 0xDEAD)
	plan := walk.NewShardPlan(rbVerts0, rbShards)
	engines, _ := newShardEngines(t, plan, rbVerts0)
	svc, err := walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
		WalkersPerShard: 2,
		WalkLength:      16,
		Seed:            0xFEED,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var readers []*walk.ReaderService
	for i := 0; i < 2; i++ {
		rd, err := svc.AttachReader(walk.ReaderConfig{WalkLength: 16, Seed: 0xCC + uint64(i)})
		if err != nil {
			t.Fatalf("AttachReader %d: %v", i, err)
		}
		readers = append(readers, rd)
	}

	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		const chunk = 64
		for lo := 0; lo < len(tape); lo += chunk {
			hi := lo + chunk
			if hi > len(tape) {
				hi = len(tape)
			}
			if err := svc.Feed(tape[lo:hi]); err != nil {
				t.Errorf("Feed: %v", err)
				return
			}
		}
	}()

	// Both readers storm; reader 0 is killed mid-flight. Its own queries
	// may fail with ErrFabricDown — nobody else's may fail at all.
	done := make(chan struct{})
	var storms sync.WaitGroup
	for ri, rd := range readers {
		storms.Add(1)
		go func(ri int, rd *walk.ReaderService) {
			defer storms.Done()
			r := xrand.New(0xF00 + uint64(ri))
			for i := 0; ; i++ {
				if i%32 == 0 {
					select {
					case <-done:
						return
					default:
					}
				}
				if _, err := rd.Query(rbHotVertex(r), 16); err != nil {
					if ri == 0 {
						return // the killed reader's in-flight queries fail by design
					}
					t.Errorf("surviving reader: Query: %v", err)
					return
				}
			}
		}(ri, rd)
	}
	time.Sleep(20 * time.Millisecond)
	if err := readers[0].Close(); err != nil {
		t.Fatalf("closing reader 0: %v", err)
	}
	writers.Wait()
	time.Sleep(20 * time.Millisecond)
	close(done)
	storms.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := svc.Sync(); err != nil {
		t.Fatalf("Sync after reader crash: %v", err)
	}
	r := xrand.New(0xAF7E)
	for i := 0; i < 64; i++ {
		if _, err := svc.Query(rbHotVertex(r), 16); err != nil {
			t.Fatalf("write session Query after reader crash: %v", err)
		}
		if _, err := readers[1].Query(rbHotVertex(r), 16); err != nil {
			t.Fatalf("surviving reader Query after reader crash: %v", err)
		}
	}
	st := svc.Stats()
	if st.Updates != int64(len(tape)) || st.Dropped != 0 {
		t.Fatalf("ingest disturbed by reader crash: %+v, want %d updates", st, len(tape))
	}
	if rst := readers[1].Stats(); rst.Queries == 0 {
		t.Fatalf("surviving reader served nothing: %+v", rst)
	}
	if err := readers[1].Close(); err != nil {
		t.Fatalf("reader 1 Close: %v", err)
	}
}

// TestPlanEpochBroadcastInvalidation pins the migration-vs-reader-cache
// story: a reader caches hub views, a scripted migration commits while it
// holds them, and the plan-epoch broadcast must flip the reader's plan and
// drop every cached view — after which its serving reflects the moved
// ownership. Nothing is fed after the warm-up, so the watermark-advance
// pruning path cannot mask the epoch-flip drop.
func TestPlanEpochBroadcastInvalidation(t *testing.T) {
	tape := buildHubSkewTape(4000, 0xE90C)
	plan := walk.NewShardPlan(rbVerts0, rbShards)
	engines, _ := newShardEngines(t, plan, rbVerts0)
	svc, err := walk.NewShardedLiveService(engines, plan, walk.ShardedLiveConfig{
		WalkersPerShard: 2,
		WalkLength:      16,
		Seed:            0xFEED,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rd, err := svc.AttachReader(walk.ReaderConfig{WalkLength: 16, Seed: 0xCAFE})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// Phase 1: land the skewed graph, then let the reader pull hub views
	// into its cache (crossing-counted requests, so repeated hot-vertex
	// queries are needed before the first install).
	if err := svc.Feed(tape); err != nil {
		t.Fatal(err)
	}
	if err := svc.Sync(); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(0x90BE)
	deadline := time.Now().Add(30 * time.Second)
	for rd.Stats().CachedViews == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reader never cached a hub view: %+v", rd.Stats())
		}
		if _, err := rd.Query(rbHotVertex(r), 16); err != nil {
			t.Fatalf("warm Query: %v", err)
		}
	}
	// Drain in-flight view replies so the cached count is quiescent.
	time.Sleep(100 * time.Millisecond)
	cached0 := rd.Stats().CachedViews
	epoch0 := rd.Stats().PlanEpoch
	if cached0 == 0 {
		t.Fatal("cached views drained to zero before the migration")
	}

	// Phase 2: move the hot block 0 while the reader holds its views.
	if err := svc.Migrate(rbMidMove.block, rbMidMove.to); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	livePlan := svc.LivePlan()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rst := rd.Stats()
		if rst.PlanFlips > 0 && rst.CachedViews == 0 && rst.PlanEpoch == livePlan.Epoch {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rst := rd.Stats()
	if rst.PlanFlips == 0 || rst.PlanEpoch == epoch0 {
		t.Fatalf("reader never saw the plan-epoch broadcast: %+v, write session at epoch %d", rst, livePlan.Epoch)
	}
	if rst.CachedViews != 0 {
		t.Fatalf("epoch flip left %d cached views standing (had %d before)", rst.CachedViews, cached0)
	}

	// The reader now serves against the moved ownership: draws from the
	// hottest (migrated) vertices must land on live neighbors only.
	seq := rbSequentialReplay(t, tape)
	var hot graph.VertexID
	best := -1
	for u := 0; u < rbVertsMax; u++ {
		if d := seq.Degree(graph.VertexID(u)); d > best {
			if _, moved := livePlan.Overlay[livePlan.BlockOf(graph.VertexID(u))]; moved {
				hot, best = graph.VertexID(u), d
			}
		}
	}
	if best < 1 {
		t.Skip("no connected vertex on a migrated block")
	}
	liveDst := map[graph.VertexID]bool{}
	for slot := range seq.VertexProbabilities(hot) {
		liveDst[seq.Neighbor(hot, slot)] = true
	}
	seen := map[graph.VertexID]bool{}
	for i := 0; i < 2000; i++ {
		path, err := rd.Query(hot, 1)
		if err != nil {
			t.Fatalf("post-migration Query: %v", err)
		}
		if len(path) != 2 || !liveDst[path[1]] {
			t.Fatalf("post-migration draw %d from moved vertex %d: path %v not a live edge", i, hot, path)
		}
		seen[path[1]] = true
	}
	if best >= 2 && len(seen) < 2 {
		t.Fatalf("2000 draws from degree-%d vertex %d hit only %v — sampling collapsed after the flip", best, hot, seen)
	}
}
