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
	"github.com/bingo-rw/bingo/internal/walk"
)

// ConcurrentConfig tunes the concurrency wrapper. The zero value selects
// all defaults.
type ConcurrentConfig struct {
	// Stripes is the lock-stripe count (rounded up to a power of two;
	// default GOMAXPROCS×8). More stripes mean less writer/walker
	// contention at a few cache lines each.
	Stripes int
	// MaxStepRetries bounds epoch-validation re-draws per walk step
	// (default 4).
	MaxStepRetries int
	// Workers bounds ApplyBatch fan-out (default: the engine's worker
	// setting).
	Workers int
}

func (c ConcurrentConfig) internal() concurrent.Config {
	return concurrent.Config{Stripes: c.Stripes, MaxStepRetries: c.MaxStepRetries, Workers: c.Workers}
}

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
	return e.ConcurrentWith(ConcurrentConfig{})
}

// ConcurrentWith is Concurrent with explicit tuning.
func (e *Engine) ConcurrentWith(cfg ConcurrentConfig) *ConcurrentEngine {
	return &ConcurrentEngine{ce: concurrent.Wrap(e.s, cfg.internal()), floatMode: e.s.Config().FloatBias}
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
// boundary crossing a walker hand-off).
type HubCacheOptions struct {
	// Off disables all cache layers.
	Off bool
	// Size is each walker's local view-LRU capacity (0 = default 256).
	Size int
	// MinDegree is the hub admission threshold: only vertices of at
	// least this degree are cached or served as views (0 = default 8).
	MinDegree int
	// RemoteSize is the per-shard remote-view cache capacity in the
	// sharded runtimes (0 = default 512).
	RemoteSize int
	// RequestAfter is how many walker hand-offs a shard observes toward
	// one non-owned vertex before fetching its view (0 = default 2).
	RequestAfter int
}

func (o HubCacheOptions) spec() fabric.CacheSpec {
	return fabric.CacheSpec{
		Off:          o.Off,
		Size:         o.Size,
		MinDegree:    o.MinDegree,
		RemoteSize:   o.RemoteSize,
		RequestAfter: o.RequestAfter,
	}
}

// LiveOptions configure Serve.
type LiveOptions struct {
	// Walkers is the walker-pool size (default GOMAXPROCS).
	Walkers int
	// QueueDepth buffers queries and feed batches (default 256); a full
	// feed queue makes Feed block (backpressure).
	QueueDepth int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes walker RNG streams reproducible.
	Seed uint64
	// HubCache tunes the pool walkers' hub-view caches.
	HubCache HubCacheOptions
}

// LiveStats snapshots a LiveWalker's counters.
type LiveStats struct {
	// Queries and Steps count served walk queries and their total steps.
	Queries, Steps int64
	// Batches and Updates count ingested feed batches and their events.
	Batches, Updates int64
	// Dropped counts feed batches whose application failed; the first
	// error is reported by Close, and ingestion continues past it.
	Dropped int64
	// CacheHits and CacheStale report the walkers' hub-view caches:
	// lock-free hops served, and views dropped on epoch mismatch.
	CacheHits, CacheStale int64
}

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
		QueueDepth: o.QueueDepth,
		WalkLength: o.WalkLength,
		Seed:       o.Seed,
		Cache:      o.HubCache.spec(),
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
func (lw *LiveWalker) Stats() LiveStats {
	st := lw.svc.Stats()
	return LiveStats{
		Queries: st.Queries, Steps: st.Steps,
		Batches: st.Batches, Updates: st.Updates, Dropped: st.Dropped,
		CacheHits: st.CacheHits, CacheStale: st.CacheStale,
	}
}

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
	// QueueDepth buffers the feed and per-shard ingest queues (default
	// 256); a full feed queue makes Feed block (backpressure).
	QueueDepth int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes query RNG streams reproducible.
	Seed uint64
	// Concurrency tunes each shard's concurrency wrapper (zero value =
	// defaults).
	Concurrency ConcurrentConfig
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
//
// The fields run on two clocks, the same for in-process shards and remote
// daemons. Queries, Steps, Transfers, and Local fold in when a walk
// retires, Batches when the router takes a batch, and Failover and
// Backpressure as their events happen: current as of the call.
// Updates, Dropped, ShardSteps, and Cache are the shards' cumulative
// tallies from their latest barrier acknowledgement: exact as of the last
// Sync. Call Sync first when the ingest counters must be current.
type ShardedLiveStats struct {
	Queries, Steps            int64
	Batches, Updates, Dropped int64
	Transfers, Local          int64
	Cache                     HubCacheStats
	// ShardSteps splits the hops the shard set served by serving shard
	// (attached readers' walks included) — the shard set's load share.
	ShardSteps []int64
	// Corpus reports standing-walk-corpus maintenance riding on this
	// service when one is attached (see CorpusWalker.ServiceStats; only
	// the maintenance tallies — Resamples through Fallbacks — are
	// populated here, serving counters stay on CorpusWalker.Stats).
	Corpus CorpusStats
	// Failover reports replica-failover activity (replicated sessions):
	// shard-link deaths, walkers re-routed or relaunched across them, and
	// completed rejoin cycles with their copied snapshot blocks.
	Failover FailoverStats
	// Backpressure reports the ingest credit window's activity.
	Backpressure BackpressureStats
}

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

// TransferRatio is walker hand-offs per sampled hop — the share of walk
// progress that cost a cross-shard transfer (hops the hub cache served
// from remote views cross shard ownership without a hand-off).
func (s ShardedLiveStats) TransferRatio() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Transfers) / float64(s.Steps)
}

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
	svc, err := walk.ServeSharded(e.s, shards, o.Replicas, wrapShard(o.Concurrency), walk.ShardedLiveConfig{
		WalkersPerShard: o.WalkersPerShard,
		QueueDepth:      o.QueueDepth,
		WalkLength:      o.WalkLength,
		Seed:            o.Seed,
		Cache:           o.HubCache.spec(),
		CreditWindow:    o.CreditWindow,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedLiveWalker{svc: svc, floatMode: e.s.Config().FloatBias}, nil
}

// wrapShard returns how the sharded bootstrap makes each copied shard
// sampler a live engine: wrapped for concurrent use.
func wrapShard(cc ConcurrentConfig) func(*core.Sampler) walk.LiveEngine {
	return func(s *core.Sampler) walk.LiveEngine { return concurrent.Wrap(s, cc.internal()) }
}

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
func (sw *ShardedLiveWalker) Stats() ShardedLiveStats {
	return fromShardedStats(sw.svc.Stats())
}

// fromShardedStats re-types the internal snapshot; only Corpus, whose
// public shape differs, is converted.
func fromShardedStats(st walk.ShardedLiveStats) ShardedLiveStats {
	return ShardedLiveStats{
		Queries: st.Queries, Steps: st.Steps,
		Batches: st.Batches, Updates: st.Updates, Dropped: st.Dropped,
		Transfers: st.Transfers, Local: st.Local,
		Cache:        st.Cache,
		ShardSteps:   st.ShardSteps,
		Corpus:       fromCorpusTallies(st.Corpus),
		Failover:     st.Failover,
		Backpressure: st.Backpressure,
	}
}

// Close drains the feed, waits for in-flight walkers, ends the session —
// in-process shard crews stop, shard daemons wind down and exit their
// serving loop — and returns the first ingest error. Idempotent.
func (sw *ShardedLiveWalker) Close() error { return sw.svc.Close() }

// ---------------------------------------------------------------------------
// Multi-process serving (shard daemons over the TCP fabric)

// RemoteOptions configure ServeRemote.
type RemoteOptions struct {
	// QueueDepth buffers the coordinator's feed queue (default 256); a
	// full queue makes Feed block (backpressure).
	QueueDepth int
	// WalkLength is the default for Query length <= 0 (default 80).
	WalkLength int
	// Seed makes query RNG streams reproducible.
	Seed uint64
	// HubCache tunes the daemons' hub-view caches; the session Hello
	// carries it, so the coordinator decides the cache policy for the
	// whole session.
	HubCache HubCacheOptions
	// Replication is the block ownership replication factor (default 1 =
	// no replication). With factor R every ownership block's rows live on
	// R consecutive daemons fed from the same routed stream, the
	// coordinator survives daemon deaths by promoting replicas (a
	// dead-mask flip), and dead daemons that come back are re-primed from
	// live replica snapshots. At most 64 shards.
	Replication int
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
	n := e.s.NumVertices()
	plan := walk.NewShardPlan(n, len(addrs))
	if o.Replication > 1 {
		plan.Replicas = o.Replication
	}
	// The daemons factorize with this engine's config and λ; each sizes
	// its batch parallelism to its own cores.
	cfg := e.s.Config()
	cfg.Workers = 0
	port, err := tcpgob.DialWith(addrs, fabric.Hello{
		RangeSize:   plan.RangeSize,
		NumVertices: n,
		Sampler:     cfg,
		Cache:       o.HubCache.spec(),
		Replicas:    plan.Replicas,
	}, tcpgob.DialConfig{Resilient: plan.Replicas > 1})
	if err != nil {
		return nil, err
	}
	attach := func() (fabric.ReadPort, error) { return tcpgob.DialReader(addrs, fabric.Hello{}) }
	svc, err := walk.ServeShardedOver(port, attach, e.s, plan, walk.ShardedLiveConfig{
		QueueDepth:   o.QueueDepth,
		WalkLength:   o.WalkLength,
		Seed:         o.Seed,
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

// ReaderWalkerStats snapshot a read-coordinator's activity.
type ReaderWalkerStats struct {
	// Queries and Steps count completed Query walks and their hops;
	// Transfers the cross-shard hand-offs inside shard-served segments.
	Queries, Steps, Transfers int64
	// LocalHits counts hops served from the reader's own hub-view cache
	// (no shard round trip); Launches walker launches into the shard
	// set; ViewRequests hub views requested from owners; CachedViews the
	// current cache population.
	LocalHits, Launches, ViewRequests int64
	CachedViews                       int
	// PlanEpoch is the reader's view of the live ownership-plan version,
	// kept current by the write-coordinator's broadcast stream;
	// PlanFlips counts epoch/liveness changes observed (each drops the
	// view cache); Applied is the newest applied-update stamp received.
	PlanEpoch uint64
	PlanFlips int64
	Applied   int64
}

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
		Cache:      o.HubCache.spec(),
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
		Cache:      o.HubCache.spec(),
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
func (rd *ReaderWalker) Stats() ReaderWalkerStats {
	st := rd.svc.Stats()
	return ReaderWalkerStats{
		Queries: st.Queries, Steps: st.Steps, Transfers: st.Transfers,
		LocalHits: st.LocalHits, Launches: st.Launches, ViewRequests: st.ViewRequests,
		CachedViews: st.CachedViews,
		PlanEpoch:   st.PlanEpoch, PlanFlips: st.PlanFlips, Applied: st.Applied,
	}
}

// Close detaches the reader. The write session and every other reader
// are unaffected. Idempotent.
func (rd *ReaderWalker) Close() error { return rd.svc.Close() }

// ShardServeOptions configure ServeShard.
type ShardServeOptions struct {
	// Walkers is the hosted shard's crew size (default GOMAXPROCS — the
	// daemon owns its process).
	Walkers int
	// Concurrency tunes the shard's concurrency wrapper (zero value =
	// defaults).
	Concurrency ConcurrentConfig
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
type ShardServeStats struct {
	Steps, Transfers, Local int64
	Updates, Dropped        int64
	Vertices                int
	Edges                   int64
	Cache                   HubCacheStats
}

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
	var last ShardServeStats
	var lastErr error
	for n := 0; sessions < 0 || n < sessions; n++ {
		sc, hello, err := l.Accept()
		if err != nil {
			return last, err
		}
		last, lastErr = serveOneShardSession(sc, hello, shard, o)
		if o.OnSession != nil {
			o.OnSession(n, last, lastErr)
		}
	}
	return last, lastErr
}

// serveOneShardSession builds a session-scoped engine from the Hello and
// runs the shard node until the coordinator ends the session.
func serveOneShardSession(sc *tcpgob.ShardConn, hello fabric.Hello, shard int, o ShardServeOptions) (ShardServeStats, error) {
	s, err := core.New(hello.NumVertices, hello.Sampler)
	if err != nil {
		sc.Close()
		return ShardServeStats{}, err
	}
	eng := concurrent.Wrap(s, o.Concurrency.internal())
	walkers := o.Walkers
	if walkers <= 0 {
		walkers = runtime.GOMAXPROCS(0)
	}
	st, err := walk.RunShardNode(eng, walk.PlanFromHello(hello), shard, sc, walkers, hello.Cache)
	return ShardServeStats{
		Steps: st.Steps, Transfers: st.Transfers, Local: st.Local,
		Updates: st.Updates, Dropped: st.Dropped,
		Vertices: st.Vertices, Edges: st.Edges,
		Cache: st.Cache,
	}, err
}
