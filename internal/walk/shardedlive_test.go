package walk_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// newShardEngines builds empty concurrent engines for a plan, each sized
// to the initial vertex space (they grow independently under the feed).
func newShardEngines(t *testing.T, plan walk.ShardPlan, numVertices int) ([]walk.LiveEngine, []*concurrent.Engine) {
	t.Helper()
	engines := make([]walk.LiveEngine, plan.Shards)
	raw := make([]*concurrent.Engine, plan.Shards)
	for i := range engines {
		e, err := concurrent.New(numVertices, core.DefaultConfig(), concurrent.Config{})
		if err != nil {
			t.Fatalf("shard %d engine: %v", i, err)
		}
		engines[i] = e
		raw[i] = e
	}
	return engines, raw
}

// ringCSR is the directed ring 0→1→…→n-1→0, every edge bias 1.
func ringCSR(t *testing.T, n int) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n), Bias: 1}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// serveTransport brings a sharded service over g into existence on the
// chosen construction: "inproc" cuts local engines from a sampler built
// over g (walk.ServeSharded), "tcpgob" dials loopback shard nodes
// speaking the daemon protocol and streams the sampler's rows through the
// fabric (walk.ServeShardedOver), its read-port constructor dialing the
// same listeners.
func serveTransport(t *testing.T, transport string, g *graph.CSR, shards int, cfg walk.ShardedLiveConfig) *walk.ShardedLiveService {
	t.Helper()
	n := g.NumVertices()
	src, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if transport == "inproc" {
		svc, err := walk.ServeSharded(src, shards, 1, func(s *core.Sampler) walk.LiveEngine {
			return concurrent.Wrap(s, concurrent.Config{})
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	newEngine := func() (walk.LiveEngine, error) {
		return concurrent.New(n, core.DefaultConfig(), concurrent.Config{})
	}
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		go func(i int, l *tcpgob.Listener) {
			defer l.Close()
			sc, hello, err := l.Accept()
			if err != nil {
				return
			}
			e, err := newEngine()
			if err != nil {
				sc.Close()
				return
			}
			walk.RunShardNode(e, walk.PlanFromHello(hello), i, sc, cfg.WalkersPerShard, hello.Cache)
		}(i, l)
	}
	plan := walk.NewShardPlan(n, shards)
	port, err := tcpgob.Dial(addrs, fabric.Hello{RangeSize: plan.RangeSize, NumVertices: n, Cache: cfg.Cache})
	if err != nil {
		t.Fatal(err)
	}
	attach := func() (fabric.ReadPort, error) { return tcpgob.DialReader(addrs, fabric.Hello{}) }
	svc, err := walk.ServeShardedOver(port, attach, src, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// ringShardService builds an in-process sharded service over the n-ring.
func ringShardService(t *testing.T, n, shards int, cfg walk.ShardedLiveConfig) *walk.ShardedLiveService {
	t.Helper()
	return serveTransport(t, "inproc", ringCSR(t, n), shards, cfg)
}

// TestShardedLiveServiceQueryFeedClose drives the service lifecycle:
// deterministic ring queries across shard boundaries, the configured
// default length, and post-Close semantics. (Counter and ingest-tally
// behaviour is pinned on both transports by
// TestShardedServiceTransportParity.)
func TestShardedLiveServiceQueryFeedClose(t *testing.T) {
	const n = 64
	svc := ringShardService(t, n, 4, walk.ShardedLiveConfig{WalkersPerShard: 2, WalkLength: 8, Seed: 5})

	// A ring walk is deterministic: Query(start, L) = start..start+L mod n.
	for _, start := range []graph.VertexID{0, 15, 16, 63} {
		path, err := svc.Query(start, 20)
		if err != nil {
			t.Fatalf("Query(%d): %v", start, err)
		}
		if len(path) != 21 {
			t.Fatalf("Query(%d): path length %d, want 21", start, len(path))
		}
		for i, v := range path {
			if want := graph.VertexID((int(start) + i) % n); v != want {
				t.Fatalf("Query(%d): path[%d] = %d, want %d", start, i, v, want)
			}
		}
	}
	// Default length comes from the config.
	if path, err := svc.Query(3, 0); err != nil || len(path) != 9 {
		t.Fatalf("Query default length: path %d, err %v; want 9, nil", len(path), err)
	}

	st := svc.Stats()
	if st.Queries != 5 || st.Steps != 4*20+8 {
		t.Fatalf("stats %+v, want 5 queries / %d steps", st, 4*20+8)
	}
	if st.Transfers == 0 {
		t.Fatal("20-hop ring walks across rangeSize-16 shards must transfer")
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := svc.Query(0, 4); err != walk.ErrLiveClosed {
		t.Fatalf("Query after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Feed(nil); err != walk.ErrLiveClosed {
		t.Fatalf("Feed after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Sync(); err != walk.ErrLiveClosed {
		t.Fatalf("Sync after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// parityOutcome is everything the parity script observes that must not
// depend on which construction served it.
type parityOutcome struct {
	Queries, Steps            int64
	Batches, Updates, Dropped int64
	BulkWalkers               int
	BulkSteps                 int64
	ReaderPathLen             int
	Edges                     []graph.Edge
}

func sortedEdges(perShard [][]graph.Edge) []graph.Edge {
	var all []graph.Edge
	for _, es := range perShard {
		all = append(all, es...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Bias < b.Bias
	})
	return all
}

// TestShardedServiceTransportParity drives one seeded script — bootstrap,
// queries, fed batches including one with an invalid sub-batch, Sync, a
// bulk DeepWalk, DumpEdges, an attached reader — through both
// constructions of the one service type and requires the same counters
// and the same edge multiset from each, plus the Stats identities that
// hold once the service's own walks are quiesced and synced. It is where
// the dropped-sub-batch contract is pinned: the failing sub-batch is
// dropped on its shard, the rest of the same Feed batch still applies
// elsewhere, and Sync and Close report the first ingest error.
func TestShardedServiceTransportParity(t *testing.T) {
	const (
		n       = 96
		shards  = 3
		queries = 40
		length  = 12
		batches = 12
	)
	// Ring plus chords: every vertex keeps an out-edge under the script's
	// churn, so every walk runs its full length and step counts are exact.
	var boot []graph.Edge
	for i := 0; i < n; i++ {
		boot = append(boot,
			graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n), Bias: 2},
			graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 7) % n), Bias: 1})
	}
	g, err := graph.FromEdges(n, boot)
	if err != nil {
		t.Fatal(err)
	}
	// The script's feed and the edge multiset a sequential replay leaves.
	want := map[graph.Edge]int{}
	for _, e := range boot {
		want[e]++
	}
	r := xrand.New(0x9A517)
	var feed [][]graph.Update
	for b := 0; b < batches; b++ {
		var ups []graph.Update
		for k := 0; k < 8; k++ {
			e := graph.Edge{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), Bias: uint64(3 + r.Intn(5))}
			ups = append(ups, graph.Update{Op: graph.OpInsert, Src: e.Src, Dst: e.Dst, Bias: e.Bias})
			want[e]++
			if k%4 == 3 { // and take it straight back out: deletes travel too
				ups = append(ups, graph.Update{Op: graph.OpDelete, Src: e.Src, Dst: e.Dst})
				want[e]--
			}
		}
		feed = append(feed, ups)
	}
	// One batch whose shard-0 sub-batch is invalid (zero bias) while its
	// shard-2 sub-batch is fine: the former is dropped whole, the latter
	// applies.
	good := graph.Edge{Src: 70, Dst: 5, Bias: 9}
	feed = append(feed[:5], append([][]graph.Update{{
		{Op: graph.OpInsert, Src: 0, Dst: 5, Bias: 0},
		{Op: graph.OpInsert, Src: good.Src, Dst: good.Dst, Bias: good.Bias},
	}}, feed[5:]...)...)
	want[good]++
	wantUpdates := int64(-1) // every fed event but the dropped sub-batch's one
	for _, ups := range feed {
		wantUpdates += int64(len(ups))
	}
	var wantEdges []graph.Edge
	for e, c := range want {
		for ; c > 0; c-- {
			wantEdges = append(wantEdges, e)
		}
	}
	wantEdges = sortedEdges([][]graph.Edge{wantEdges})

	run := func(t *testing.T, transport string) parityOutcome {
		svc := serveTransport(t, transport, g, shards, walk.ShardedLiveConfig{
			WalkersPerShard: 2, WalkLength: length, Seed: 0xBA5E,
			// Every vertex view-servable, so the remote cache layer takes
			// part in the step identities below.
			Cache: fabric.CacheSpec{MinDegree: 1},
		})
		qr := xrand.New(0x5EED)
		for q := 0; q < queries; q++ {
			path, err := svc.Query(graph.VertexID(qr.Intn(n)), 0)
			if err != nil || len(path) != length+1 {
				t.Fatalf("Query %d: path %d, err %v", q, len(path), err)
			}
		}
		for _, ups := range feed {
			if err := svc.Feed(append([]graph.Update(nil), ups...)); err != nil {
				t.Fatalf("Feed: %v", err)
			}
		}
		if err := svc.Sync(); err == nil {
			t.Fatal("Sync returned nil, want the zero-bias ingest error")
		}
		res, ts, err := svc.DeepWalk(walk.Config{Length: length, Seed: 7})
		if err != nil {
			t.Fatalf("DeepWalk: %v", err)
		}
		if ts.Local+ts.Remote != res.Steps {
			t.Fatalf("bulk local(%d)+remote(%d) != steps(%d)", ts.Local, ts.Remote, res.Steps)
		}
		// Quiesced and synced, the retire-time and ack-time clocks agree.
		// A crew flushes a round's tallies just after forwarding that
		// round's walkers, so a barrier can reach a shard between the two:
		// re-Sync until the acks have settled.
		var st walk.ShardedLiveStats
		for deadline := time.Now().Add(10 * time.Second); ; {
			_ = svc.Sync() // still reports the sticky ingest error
			st = svc.Stats()
			var sum int64
			for _, s := range st.ShardSteps {
				sum += s
			}
			if st.Steps == st.Local+st.Cache.RemoteHits && sum == st.Steps {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("after Sync: steps %d, local %d + remote hits %d, shard steps %v", st.Steps, st.Local, st.Cache.RemoteHits, st.ShardSteps)
			}
			time.Sleep(time.Millisecond)
		}
		if st.Cache.RemoteHits == 0 {
			t.Fatal("no hop was served from a remote view: the step identities above never covered that layer")
		}
		if st.Steps != int64(queries*length)+res.Steps {
			t.Fatalf("steps %d, want %d query + %d bulk", st.Steps, queries*length, res.Steps)
		}
		perShard, _ := svc.DumpEdges() // the edges come beside the sticky ingest error
		out := parityOutcome{
			Queries: st.Queries, Steps: st.Steps,
			Batches: st.Batches, Updates: st.Updates, Dropped: st.Dropped,
			BulkWalkers: res.Walkers, BulkSteps: res.Steps,
			Edges: sortedEdges(perShard),
		}
		// The read-port constructor captured at build time works on both.
		rd, err := svc.AttachReader(walk.ReaderConfig{Seed: 3})
		if err != nil {
			t.Fatalf("AttachReader: %v", err)
		}
		path, err := rd.Query(1, 0)
		if err != nil {
			t.Fatalf("reader Query: %v", err)
		}
		out.ReaderPathLen = len(path)
		rd.Close()
		if err := svc.Close(); err == nil {
			t.Fatal("Close must report the first ingest error")
		}
		return out
	}

	outcomes := map[string]parityOutcome{}
	for _, transport := range []string{"inproc", "tcpgob"} {
		t.Run(transport, func(t *testing.T) {
			out := run(t, transport)
			if out.Queries != queries || out.Batches != int64(len(feed)) || out.Updates != wantUpdates || out.Dropped != 1 {
				t.Fatalf("queries/batches/updates/dropped = %d/%d/%d/%d, want %d/%d/%d/1",
					out.Queries, out.Batches, out.Updates, out.Dropped, queries, len(feed), wantUpdates)
			}
			if out.ReaderPathLen != length+1 {
				t.Fatalf("reader path length %d, want the service default %d", out.ReaderPathLen, length+1)
			}
			if !reflect.DeepEqual(out.Edges, wantEdges) {
				t.Fatalf("edge multiset differs from the sequential replay: %d edges, want %d", len(out.Edges), len(wantEdges))
			}
			outcomes[transport] = out
		})
	}
	if a, b := outcomes["inproc"], outcomes["tcpgob"]; !t.Failed() && !reflect.DeepEqual(a, b) {
		a.Edges, b.Edges = nil, nil
		t.Fatalf("constructions disagree:\n inproc %+v\n tcpgob %+v", a, b)
	}
}

// TestShardedLiveBulkDeepWalk runs the bulk kernel through the sharded
// runtime on the deterministic ring while a feed keeps ingesting.
func TestShardedLiveBulkDeepWalk(t *testing.T) {
	const n = 64
	svc := ringShardService(t, n, 4, walk.ShardedLiveConfig{WalkersPerShard: 2})
	defer svc.Close()

	var feeders sync.WaitGroup
	feeders.Add(1)
	go func() {
		defer feeders.Done()
		for i := 0; i < 20; i++ {
			u := graph.VertexID(i % n)
			_ = svc.Feed([]graph.Update{
				{Op: graph.OpInsert, Src: u, Dst: graph.VertexID((i + 9) % n), Bias: 1},
				{Op: graph.OpDelete, Src: u, Dst: graph.VertexID((i + 9) % n)},
			})
		}
	}()
	res, ts, err := svc.DeepWalk(walk.Config{Length: 24, Seed: 7, CountVisits: true})
	feeders.Wait()
	if err != nil {
		t.Fatalf("DeepWalk: %v", err)
	}
	if res.Walkers != n || res.Steps != int64(n*24) {
		t.Fatalf("bulk result %d walkers / %d steps, want %d / %d", res.Walkers, res.Steps, n, n*24)
	}
	if ts.Transfers == 0 {
		t.Fatal("24-hop ring walks across 4 shards must transfer")
	}
	if ts.Local+ts.Remote != res.Steps {
		t.Fatalf("local(%d)+remote(%d) != steps(%d)", ts.Local, ts.Remote, res.Steps)
	}
	var visits int64
	for _, c := range res.Visits {
		visits += c
	}
	if visits != int64(n*25) { // starts + hops (ring edges stay intact mid-feed)
		t.Fatalf("total visits %d, want %d", visits, n*25)
	}
}

// TestShardedOwnerGrowthMidWalk is the owner-overflow regression on the
// serving runtime: a service whose plan was derived from a 64-vertex
// snapshot must survive the feed growing the vertex space underneath its
// walkers. Before the block-cyclic fix, the first walker to step onto a
// grown vertex computed an owner ≥ shards and indexed out of range.
func TestShardedOwnerGrowthMidWalk(t *testing.T) {
	const n0 = 64
	svc := ringShardService(t, n0, 4, walk.ShardedLiveConfig{WalkersPerShard: 2})
	defer svc.Close()

	done := make(chan struct{})
	go func() {
		defer close(done) // also on error paths, or the walk loop spins forever
		// Grow the space past 4× the construction-time size and wire the
		// grown region into the ring so walkers actually reach it.
		for big := graph.VertexID(n0); big < 40*n0; big += 16 {
			if err := svc.Feed([]graph.Update{
				{Op: graph.OpInsert, Src: big % n0, Dst: big, Bias: 1_000_000},
				{Op: graph.OpInsert, Src: big, Dst: (big + 1) % n0, Bias: 1},
			}); err != nil {
				t.Errorf("growth feed: %v", err)
				return
			}
		}
	}()

	starts := make([]graph.VertexID, n0)
	for i := range starts {
		starts[i] = graph.VertexID(i)
	}
	for round := 0; ; round++ {
		res, _, err := svc.DeepWalk(walk.Config{Length: 16, Seed: uint64(round), Starts: starts, CountVisits: true})
		if err != nil || res.Steps == 0 {
			t.Fatalf("round %d: %d steps, err %v", round, res.Steps, err)
		}
		select {
		case <-done:
			if err := svc.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			// One final pass over the fully grown graph.
			res, stats, err := svc.DeepWalk(walk.Config{Length: 16, Seed: 99, Starts: starts, CountVisits: true})
			if err != nil || res.Steps == 0 || stats.Transfers == 0 {
				t.Fatalf("post-growth walk: %d steps, %d transfers, err %v", res.Steps, stats.Transfers, err)
			}
			if len(res.Visits) <= n0 || svc.NumVertices() <= n0 {
				t.Fatalf("the walks never left the construction-time space (%d visit slots, %d vertices) — regression test is vacuous",
					len(res.Visits), svc.NumVertices())
			}
			return
		default:
		}
	}
}

// TestShardedServiceSessionDeath pins the dead-session contract over a
// wire fabric: when a shard daemon dies mid-session (its connection drops
// without a shutdown), the whole single-session fabric is over — in-flight
// and *subsequent* Sync/Query/Close calls must fail promptly instead of
// blocking forever on acks and retires that will never arrive.
func TestShardedServiceSessionDeath(t *testing.T) {
	const shards = 2
	listeners := make([]*tcpgob.Listener, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	// Shard 1 is a healthy node; shard 0 accepts the session and then
	// "crashes" (closes everything without serving).
	go func() {
		sc, hello, err := listeners[1].Accept()
		if err != nil {
			return
		}
		s, err := core.New(hello.NumVertices, core.DefaultConfig())
		if err != nil {
			return
		}
		e := concurrent.Wrap(s, concurrent.Config{})
		walk.RunShardNode(e, walk.PlanFromHello(hello), 1, sc, 1, fabric.CacheSpec{})
	}()
	go func() {
		sc, _, err := listeners[0].Accept()
		if err != nil {
			return
		}
		sc.Close()
	}()

	const verts = 64
	plan := walk.NewShardPlan(verts, shards)
	port, err := tcpgob.Dial(addrs, fabric.Hello{RangeSize: plan.RangeSize, NumVertices: verts})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := walk.NewShardedLiveServiceOver(port, nil, plan, verts, walk.ShardedLiveConfig{WalkLength: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Everything below must complete well inside the test timeout: the
	// dead shard never acks a barrier, so only the death-propagation path
	// can unblock these calls.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Feed([]graph.Update{{Op: graph.OpInsert, Src: 1, Dst: 2, Bias: 1}}); err != nil {
			t.Logf("Feed after death: %v", err)
		}
		if err := svc.Sync(); err == nil {
			t.Error("Sync on a dead session returned nil")
		}
		if _, err := svc.Query(1, 4); err == nil {
			t.Error("Query on a dead session returned nil error")
		}
		if err := svc.Close(); err == nil {
			t.Error("Close on a dead session returned nil")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dead session left callers blocked")
	}
}
