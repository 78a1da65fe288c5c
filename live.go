package bingo

// This file is the public face of the walk-while-ingest subsystem
// (internal/concurrent + walk.LiveService): Engine.Concurrent() upgrades an
// engine to full concurrency, and ConcurrentEngine.Serve() turns it into a
// query/feed service. See DESIGN.md ("Concurrency model") for the stripe and
// epoch protocol and its guarantees.

import (
	"fmt"
	"runtime"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/remote"
	"github.com/bingo-rw/bingo/internal/walk"
)

// ConcurrentEngine is a fully concurrent Bingo engine: any number of
// goroutines may sample, walk, insert, delete, and batch-apply updates
// simultaneously. Sampling stays O(1) and updates O(K); operations on
// vertices in distinct lock stripes do not contend.
type ConcurrentEngine struct {
	ce        *concurrent.Engine
	floatMode bool
}

// Concurrent upgrades the engine for concurrent walk-while-ingest use. The
// returned wrapper takes ownership of the underlying engine: after this
// call the original Engine must no longer be used directly.
func (e *Engine) Concurrent() *ConcurrentEngine {
	return &ConcurrentEngine{ce: concurrent.Wrap(e.s, concurrent.Config{}), floatMode: e.s.Config().FloatBias}
}

// NumVertices returns the vertex-ID space size.
func (c *ConcurrentEngine) NumVertices() int { return c.ce.NumVertices() }

// NumEdges returns the live edge count.
func (c *ConcurrentEngine) NumEdges() int64 { return c.ce.NumEdges() }

// Degree returns u's out-degree.
func (c *ConcurrentEngine) Degree(u VertexID) int { return c.ce.Degree(u) }

// HasEdge reports whether at least one edge u→dst is live.
func (c *ConcurrentEngine) HasEdge(u, dst VertexID) bool { return c.ce.HasEdge(u, dst) }

// Memory returns the engine's memory footprint in bytes (quiesces briefly).
func (c *ConcurrentEngine) Memory() int64 { return c.ce.Footprint() }

// Sample draws a neighbor of u with probability weight/Σweights. Safe for
// arbitrary concurrent use; each goroutine needs its own Rand.
func (c *ConcurrentEngine) Sample(u VertexID, r *Rand) (VertexID, bool) {
	return c.ce.Sample(u, r)
}

// SampleSeq draws up to len(dst) independent samples of u's neighbors under
// one lock acquisition, all against the same graph version. It returns the
// number drawn.
func (c *ConcurrentEngine) SampleSeq(u VertexID, dst []VertexID, r *Rand) int {
	return c.ce.SampleSeq(u, dst, r)
}

// Walk performs a first-order walk of up to length steps from start and
// returns the visited path (start included). Each step is drawn with the
// epoch validate-and-retry protocol, so hops reflect stable graph versions
// even while updates interleave.
func (c *ConcurrentEngine) Walk(start VertexID, length int, r *Rand) []VertexID {
	path, _ := c.ce.WalkFrom(start, length, r, nil)
	return path
}

// Insert adds edge u→dst with the given weight (streaming path, O(K)).
func (c *ConcurrentEngine) Insert(u, dst VertexID, weight float64) error {
	if c.floatMode {
		return c.ce.InsertFloat(u, dst, weight)
	}
	ib, err := intWeight(weight)
	if err != nil {
		return err
	}
	return c.ce.Insert(u, dst, ib)
}

// Delete removes one live instance of edge u→dst (streaming path, O(K)).
func (c *ConcurrentEngine) Delete(u, dst VertexID) error { return c.ce.Delete(u, dst) }

// UpdateWeight rewrites the weight of one live instance of edge u→dst.
func (c *ConcurrentEngine) UpdateWeight(u, dst VertexID, weight float64) error {
	if c.floatMode {
		return c.ce.UpdateBiasFloat(u, dst, weight)
	}
	ib, err := intWeight(weight)
	if err != nil {
		return err
	}
	return c.ce.UpdateBias(u, dst, ib)
}

// ApplyBatch ingests updates through the batched path while walkers keep
// running: only the lock stripes of touched vertices block, and each only
// for its own per-vertex application.
func (c *ConcurrentEngine) ApplyBatch(ups []Update) (BatchResult, error) {
	internal, err := toInternalUpdates(c.floatMode, ups)
	if err != nil {
		return BatchResult{}, err
	}
	res, err := c.ce.ApplyBatch(internal)
	return BatchResult{Inserted: res.Inserted, Deleted: res.Deleted, NotFound: res.NotFound}, err
}

// DeepWalk runs biased DeepWalk over the live graph; updates may proceed
// concurrently.
func (c *ConcurrentEngine) DeepWalk(o WalkOptions) WalkResult {
	return fromWalk(walk.DeepWalk(c.ce, o.internal()))
}

// Node2Vec runs second-order node2vec walks over the live graph.
func (c *ConcurrentEngine) Node2Vec(o WalkOptions) WalkResult {
	return fromWalk(walk.Node2Vec(c.ce, o.internal()))
}

// PPR runs personalized-PageRank walks over the live graph.
func (c *ConcurrentEngine) PPR(o WalkOptions) WalkResult {
	return fromWalk(walk.PPR(c.ce, o.internal()))
}

// SimpleSampling runs the independent one-hop sampling kernel over the
// live graph.
func (c *ConcurrentEngine) SimpleSampling(o WalkOptions) WalkResult {
	return fromWalk(walk.SimpleSampling(c.ce, o.internal()))
}

// CheckInvariants quiesces the engine and verifies structural invariants
// (tests and debugging; O(V + E·K)).
func (c *ConcurrentEngine) CheckInvariants() error {
	var err error
	c.ce.Quiesce(func(s *core.Sampler) { err = s.CheckInvariants() })
	return err
}

// HubCacheOptions tune the hub-vertex view caches of the serving
// runtimes. The zero value enables caching with defaults; set Off to get
// the pre-cache behavior (every hop through the engine lock, every
// boundary crossing a walker hand-off). MinDegree is the hub admission
// threshold: only vertices of at least this degree are cached or served
// as views (0 = default 8). The cache sizes are fixed: 256 views per
// walker, 512 remote views per shard, a view fetched after a shard's
// second hand-off toward the same non-owned vertex.
type HubCacheOptions = fabric.CacheSpec

// LiveOptions configure Serve. Every serving queue holds 256 entries; a
// full feed queue makes Feed block (backpressure).
type LiveOptions struct {
	// Walkers is the walker-pool size (default GOMAXPROCS).
	Walkers int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes walker RNG streams reproducible.
	Seed uint64
	// HubCache tunes the pool walkers' hub-view caches.
	HubCache HubCacheOptions
}

// LiveStats snapshots a LiveWalker's counters: served queries and their
// steps, ingested feed batches and their events, batches Dropped because
// their application failed (the first error is reported by Close, and
// ingestion continues past it), and the walkers' hub-view caches —
// lock-free hops served (CacheHits) and views dropped on epoch mismatch
// (CacheStale).
type LiveStats = walk.LiveStats

// LiveWalker serves walk queries from a walker pool while a streaming
// update feed mutates the graph — the paper's dynamic-graph serving
// scenario as an API.
type LiveWalker struct {
	svc       *walk.LiveService
	floatMode bool
}

// Serve starts a walker pool plus ingest loop over the engine.
func (c *ConcurrentEngine) Serve(o LiveOptions) *LiveWalker {
	svc := walk.NewLiveService(c.ce, walk.LiveConfig{
		Walkers:    o.Walkers,
		WalkLength: o.WalkLength,
		Seed:       o.Seed,
		Cache:      o.HubCache,
	})
	return &LiveWalker{svc: svc, floatMode: c.floatMode}
}

// Query walks from start for up to length steps (<= 0 selects the default)
// and returns the visited path, start included.
func (lw *LiveWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return lw.svc.Query(start, length)
}

// Feed enqueues updates for ingestion. It blocks when the feed queue is
// full and fails with an error after Close.
func (lw *LiveWalker) Feed(ups []Update) error {
	internal, err := toInternalUpdates(lw.floatMode, ups)
	if err != nil {
		return err
	}
	return lw.svc.Feed(internal)
}

// Stats snapshots the service counters.
func (lw *LiveWalker) Stats() LiveStats { return lw.svc.Stats() }

// Close drains both queues, stops the pool, and returns the first ingest
// error. Idempotent.
func (lw *LiveWalker) Close() error { return lw.svc.Close() }

// ---------------------------------------------------------------------------
// Sharded serving

// ShardedOptions configure ServeSharded.
type ShardedOptions struct {
	// WalkersPerShard sizes each shard's walker crew (default
	// max(1, GOMAXPROCS / shards)).
	WalkersPerShard int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes query RNG streams reproducible.
	Seed uint64
	// HubCache tunes the shards' hub-view caches.
	HubCache HubCacheOptions
	// Replicas is the block ownership replication factor (default 1 = no
	// replication). With Replicas = R, every ownership block's rows live
	// on R consecutive shards, fed from the same routed update stream, and
	// the runtime survives shard failures by promoting a replica (a
	// dead-mask flip — the replicas are already identical). At most 64
	// shards.
	Replicas int
	// CreditWindow bounds per-shard in-flight (routed but unapplied)
	// update events; a full window blocks Feed (0 = default 16384,
	// negative disables).
	CreditWindow int
}

// HubCacheStats report the hub-view cache layers of a sharded runtime:
// LocalHits are hops served lock-free from a crew walker's own view cache
// and LocalStale views dropped on epoch mismatch; RemoteHits are hops at
// non-owned vertices served from a peer's shipped view instead of a
// walker hand-off and RemoteStale remote views dropped by watermark
// invalidation; ViewRequests and ViewsServed count the fabric's view
// fetch traffic (issued and answered).
type HubCacheStats = fabric.CacheTallies

// ShardedLiveStats snapshots a ShardedLiveWalker's counters. Transfers
// counts cross-shard walker hand-offs and Local the hops sampled by the
// shard owning the walker's vertex; Cache.RemoteHits are boundary
// crossings the hub cache absorbed, so Steps = Local + Cache.RemoteHits.
// ShardSteps splits the hops the shard set served by serving shard, and
// Corpus carries the maintenance tallies of a standing corpus riding on
// the service (see CorpusWalker.ServiceStats).
//
// The fields run on two clocks, the same for in-process shards and remote
// daemons. Queries, Steps, Transfers, and Local fold in when a walk
// retires, Batches when the router takes a batch, and Failover and
// Backpressure as their events happen: current as of the call.
// Updates, Dropped, ShardSteps, and Cache are the shards' cumulative
// tallies from their latest barrier acknowledgement: exact as of the last
// Sync. Call Sync first when the ingest counters must be current.
type ShardedLiveStats = walk.ShardedLiveStats

// FailoverStats report a replicated session's failover activity: Deaths
// counts shard-link death events, Reroutes walkers re-routed to a live
// replica mid-walk, Relaunches walker clones relaunched because their
// originals may have died with a daemon, Rejoins completed
// rejoin/failback cycles, and CopiedBlocks the snapshot blocks shipped
// while re-priming rejoined shards.
type FailoverStats = walk.FailoverTallies

// BackpressureStats report the ingest credit window's observed pressure:
// the configured per-shard Window (0 = disabled), MaxOutstanding — the
// largest admitted per-shard in-flight update event count — and Stalled,
// the total time the feed router spent blocked waiting for shard credits.
type BackpressureStats = walk.BackpressureTallies

// ShardedLiveWalker serves walk queries through the sharded live runtime:
// N per-shard concurrent engines, an ingest router splitting feed batches
// by owner shard, and cross-shard walker transfer — the supplement §9.1
// partitioned topology as a live Query/Feed service. The API mirrors
// LiveWalker, plus Sync (an ingest barrier) and transfer telemetry. It is
// one type whether the shards are goroutines in this process
// (ServeSharded) or shard-daemon processes behind the TCP fabric
// (ServeRemote): the same coordinator drives either over its fabric port.
type ShardedLiveWalker struct {
	svc       *walk.ShardedLiveService
	floatMode bool
}

// ServeSharded partitions the engine's current graph into shards vertex
// ranges (block-cyclic, so ownership stays total while the live feed grows
// the vertex space), cuts one concurrent engine per shard from it, and
// starts the sharded serving runtime. Each shard engine is built by
// copying the engine's factorized records for the vertices it holds —
// adjacency, radix groups, alias tables, the engine's Config and λ — not
// by re-inserting their edges, so a shard draws exactly what the engine
// draws. The copy is taken at this call; the original Engine remains
// usable but further mutations to it are not reflected in the service —
// feed them through the service instead.
func (e *Engine) ServeSharded(shards int, o ShardedOptions) (*ShardedLiveWalker, error) {
	if shards < 1 {
		shards = 1
	}
	svc, err := walk.ServeSharded(e.s, shards, o.Replicas, wrapShard, walk.ShardedLiveConfig{
		WalkersPerShard: o.WalkersPerShard,
		WalkLength:      o.WalkLength,
		Seed:            o.Seed,
		Cache:           o.HubCache,
		CreditWindow:    o.CreditWindow,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedLiveWalker{svc: svc, floatMode: e.s.Config().FloatBias}, nil
}

// wrapShard is how the sharded bootstrap makes each copied shard sampler
// a live engine: wrapped for concurrent use.
func wrapShard(s *core.Sampler) walk.LiveEngine { return concurrent.Wrap(s, concurrent.Config{}) }

// Shards returns the partition count.
func (sw *ShardedLiveWalker) Shards() int { return sw.svc.Shards() }

// NumVertices returns the widest vertex space observed across the shards
// (exact as of the last Sync).
func (sw *ShardedLiveWalker) NumVertices() int { return sw.svc.NumVertices() }

// Query walks from start for up to length steps (<= 0 selects the
// default) across the sharded runtime and returns the visited path, start
// included.
func (sw *ShardedLiveWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return sw.svc.Query(start, length)
}

// Feed enqueues updates; the router splits them by owner shard while
// preserving per-source order. It blocks when the feed queue is full and
// fails with an error after Close.
func (sw *ShardedLiveWalker) Feed(ups []Update) error {
	internal, err := toInternalUpdates(sw.floatMode, ups)
	if err != nil {
		return err
	}
	return sw.svc.Feed(internal)
}

// Sync blocks until every batch accepted before the call is applied on
// its shards, then reports the first ingest error — the barrier between
// "fed" and "visible to queries" — and refreshes the ack-carried tallies
// Stats reads.
func (sw *ShardedLiveWalker) Sync() error { return sw.svc.Sync() }

// DeepWalk runs a bulk first-order walk through the sharded runtime while
// the feed keeps ingesting. The stats value beside the result covers this
// run alone: its Steps, Transfers, Local, and Cache.RemoteHits, tallied
// as its walkers retired.
func (sw *ShardedLiveWalker) DeepWalk(o WalkOptions) (WalkResult, ShardedLiveStats, error) {
	res, ts, err := sw.svc.DeepWalk(o.internal())
	st := ShardedLiveStats{Steps: res.Steps, Transfers: ts.Transfers, Local: ts.Local}
	st.Cache.RemoteHits = ts.Remote
	return fromWalk(res), st, err
}

// Stats snapshots the service counters (see ShardedLiveStats for which
// are current as of the call and which as of the last Sync).
func (sw *ShardedLiveWalker) Stats() ShardedLiveStats { return sw.svc.Stats() }

// Close drains the feed, waits for in-flight walkers, ends the session —
// in-process shard crews stop, shard daemons wind down and exit their
// serving loop — and returns the first ingest error. Idempotent.
func (sw *ShardedLiveWalker) Close() error { return sw.svc.Close() }

// ---------------------------------------------------------------------------
// Multi-process serving (shard daemons over the TCP fabric)

// RemoteOptions configure ServeRemote.
type RemoteOptions struct {
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes query RNG streams reproducible.
	Seed uint64
	// HubCache tunes the daemons' hub-view caches; the session Hello
	// carries it, so the coordinator decides the cache policy for the
	// whole session.
	HubCache HubCacheOptions
	// Replicas is the block ownership replication factor (default 1 = no
	// replication). With Replicas = R every ownership block's rows live on
	// R consecutive daemons fed from the same routed stream, the
	// coordinator survives daemon deaths by promoting replicas (a
	// dead-mask flip), and dead daemons that come back are re-primed from
	// live replica snapshots. At most 64 shards.
	Replicas int
	// CreditWindow bounds per-daemon in-flight (routed but unapplied)
	// update events; a full window blocks Feed instead of growing daemon
	// memory (0 = default 16384, negative disables).
	CreditWindow int
}

// RemoteWalker is the ShardedLiveWalker ServeRemote returns: the shards
// are shard-daemon processes and the coordinator drives walker transfers,
// routed feeds, and sync barriers over the TCP shard fabric instead of
// channels. Nothing else differs, so it is the same type.
type RemoteWalker = ShardedLiveWalker

// ServeRemote partitions the engine's current graph across one shard
// daemon per address (each a `bingowalk -shard-serve` process, already
// listening) and starts a serving session: every daemon receives the
// partition geometry and engine spec, is streamed exactly the rows it
// holds, whole, and builds their records in one pass, and the call
// returns once a sync barrier confirms the bootstrap landed. The engine's
// graph is read during this call; do not mutate the engine concurrently,
// and feed later mutations through the returned walker.
func (e *Engine) ServeRemote(addrs []string, o RemoteOptions) (*RemoteWalker, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("bingo: ServeRemote needs at least one shard address")
	}
	// The daemons factorize with this engine's config and λ; each sizes
	// its batch parallelism to its own cores.
	cfg := e.s.Config()
	cfg.Workers = 0
	svc, err := remote.Open(addrs, e.s, o.Replicas, cfg, walk.ShardedLiveConfig{
		WalkLength:   o.WalkLength,
		Seed:         o.Seed,
		Cache:        o.HubCache,
		CreditWindow: o.CreditWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("bingo: %w", err)
	}
	return &RemoteWalker{svc: svc, floatMode: cfg.FloatBias}, nil
}

// ---------------------------------------------------------------------------
// Read-coordinators (query-tier scale-out)

// ReaderOptions configure AttachReader.
type ReaderOptions struct {
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes the reader's query RNG streams reproducible.
	Seed uint64
	// HubCache tunes the reader's own hub-view cache — the layer that
	// serves hops without any shard round trip (zero value = enabled with
	// defaults; Off disables reader-local serving).
	HubCache HubCacheOptions
}

// ReaderWalkerStats snapshot a read-coordinator's activity: completed
// queries with their hops and hand-offs, hops served from the reader's
// own hub-view cache (LocalHits, no shard round trip), walker launches,
// view requests and the cache population, and the reader's view of the
// live plan as the write-coordinator's broadcasts keep it current.
type ReaderWalkerStats = walk.ReaderStats

// ReaderWalker is a read-coordinator: a Query/DeepWalk front end
// attached to a shard set another process (or service) writes to.
// Exactly one write session owns ingest and credit flow;
// any number of ReaderWalkers serve queries beside it, each keeping its
// routing and hub-view cache valid through the write-coordinator's
// broadcast stream. Serving is bounded-staleness: AppliedStamp reports
// how much ingest this reader's answers are guaranteed to reflect, and
// WaitApplied(stamp) blocks until the writer's stamp (its AppliedStamp
// after a Sync) is covered.
type ReaderWalker struct {
	svc *walk.ReaderService
}

// AttachReader attaches a read-coordinator to a running shard-daemon set
// over the TCP fabric. addrs must list the same daemons (in the same
// order) as the write session's ServeRemote; the attach fails if no
// write session is live. The reader serves queries without mediating
// ingest and detaches independently with Close.
func AttachReader(addrs []string, o ReaderOptions) (*ReaderWalker, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("bingo: AttachReader needs at least one shard address")
	}
	port, err := tcpgob.DialReader(addrs, fabric.Hello{})
	if err != nil {
		return nil, err
	}
	svc, err := walk.NewReaderService(port, walk.ReaderConfig{
		WalkLength: o.WalkLength,
		Seed:       o.Seed,
		Cache:      o.HubCache,
	})
	if err != nil {
		return nil, err
	}
	return &ReaderWalker{svc: svc}, nil
}

// AttachReader attaches a read-coordinator to this walker's shard set —
// over the in-process fabric for ServeSharded, over fresh TCP connections
// to the same daemons for ServeRemote: the returned ReaderWalker serves
// Query/DeepWalk against the same shards while this walker keeps
// exclusive ownership of ingest.
func (sw *ShardedLiveWalker) AttachReader(o ReaderOptions) (*ReaderWalker, error) {
	svc, err := sw.svc.AttachReader(walk.ReaderConfig{
		WalkLength: o.WalkLength,
		Seed:       o.Seed,
		Cache:      o.HubCache,
	})
	if err != nil {
		return nil, err
	}
	return &ReaderWalker{svc: svc}, nil
}

// Query walks from start for up to length steps (<= 0 selects the
// default) and returns the visited path, start included. Hops are served
// from the reader's hub-view cache when a valid cached view covers the
// walker's position; the remainder runs on the shard set.
func (rd *ReaderWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return rd.svc.Query(start, length)
}

// DeepWalk runs a bulk first-order walk through the shard set from this
// reader while the write session keeps ingesting.
func (rd *ReaderWalker) DeepWalk(o WalkOptions) (WalkResult, error) {
	res, _, err := rd.svc.DeepWalk(o.internal())
	return fromWalk(res), err
}

// NumVertices returns the reader's view of the vertex-space size (kept
// current by the broadcast stream).
func (rd *ReaderWalker) NumVertices() int { return rd.svc.NumVertices() }

// AppliedStamp returns the newest applied-update stamp the broadcast
// stream has delivered — how much of the write session's ingest this
// reader's serving is guaranteed to reflect.
func (rd *ReaderWalker) AppliedStamp() int64 { return rd.svc.AppliedStamp() }

// WaitApplied blocks until the reader's applied stamp reaches stamp
// (typically the write side's AppliedStamp() after a Sync), then
// returns nil; it fails if the write session ends first.
func (rd *ReaderWalker) WaitApplied(stamp int64) error { return rd.svc.WaitApplied(stamp) }

// Stats snapshots the reader's counters.
func (rd *ReaderWalker) Stats() ReaderWalkerStats { return rd.svc.Stats() }

// Close detaches the reader. The write session and every other reader
// are unaffected. Idempotent.
func (rd *ReaderWalker) Close() error { return rd.svc.Close() }

// ShardServeOptions configure ServeShard.
type ShardServeOptions struct {
	// Walkers is the hosted shard's crew size (default GOMAXPROCS — the
	// daemon owns its process).
	Walkers int
	// Sessions is how many coordinator sessions to serve before
	// returning: 0 serves exactly one (the pre-multi-session behavior),
	// negative serves indefinitely — the daemon loops back to accepting
	// a new coordinator Hello after each session tears down, with a
	// fresh engine per session.
	Sessions int
	// OnListen, if non-nil, receives the bound listen address before the
	// call blocks waiting for a coordinator (useful with ":0" ports).
	OnListen func(addr string)
	// OnSession, if non-nil, receives each completed session's index
	// (from 0), tallies, and error.
	OnSession func(session int, st ShardServeStats, err error)
}

// ShardServeStats summarizes a completed shard-daemon session.
type ShardServeStats = walk.ShardNodeStats

// ServeShard hosts one shard of a multi-process serving session: it
// listens on addr, waits for a coordinator (an Engine.ServeRemote call
// elsewhere) to open a session, builds a concurrent engine from the
// announced spec, and serves walker transfers, hub-view traffic, and
// routed ingest until the coordinator closes the session. With
// Sessions != 0 the daemon then loops back to accepting the next
// coordinator Hello instead of exiting (each session gets a fresh
// engine; a stray peer stream from a torn-down session is refused by its
// session nonce). shard/shards are this daemon's claimed position,
// validated against every coordinator's Hello (pass shards <= 0 to
// accept any count). It returns the final session's stats. This is the
// body of `bingowalk -shard-serve`.
func ServeShard(addr string, shard, shards int, o ShardServeOptions) (ShardServeStats, error) {
	l, err := tcpgob.Listen(addr, shard, shards)
	if err != nil {
		return ShardServeStats{}, err
	}
	defer l.Close()
	if o.OnListen != nil {
		o.OnListen(l.Addr().String())
	}
	sessions := o.Sessions
	if sessions == 0 {
		sessions = 1
	}
	walkers := o.Walkers
	if walkers <= 0 {
		walkers = runtime.GOMAXPROCS(0)
	}
	var last ShardServeStats
	var lastErr error
	for n := 0; sessions < 0 || n < sessions; n++ {
		sc, hello, err := l.Accept()
		if err != nil {
			return last, err
		}
		last, lastErr = remote.Serve(sc, hello, shard, walkers)
		if o.OnSession != nil {
			o.OnSession(n, last, lastErr)
		}
	}
	return last, lastErr
}
