package walk

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/inproc"
	"github.com/bingo-rw/bingo/internal/graph"
)

// ShardedLiveService is the sharded serving runtime — the one service
// type over any shard fabric: a coordinator (ingest router, barriers,
// control plane, and the walk front end) driving N shard nodes, each
// owning the vertices of one ShardPlan slot, behind a single Query/Feed
// front. Where LiveService puts every walker and the ingest loop into
// one engine's lock domain, each shard has its own engine, its own walker
// crew, and its own ingester — writers on shard A never contend with
// walkers on shard B.
//
// The execution model is the supplement §9.1 topology made live:
//
//   - Walkers, not sampling structures, move. A query walk starts on the
//     shard owning its start vertex, advances while it remains on owned
//     vertices, and is handed to the owning shard the moment it crosses a
//     partition boundary ("transferring walkers has the light burden of
//     communication").
//   - Feed batches pass through a single router that splits them by
//     Owner(Src) and publishes the pieces on per-shard ingest streams. One
//     router plus one ingester per shard keeps per-source order: all of a
//     source's updates land on one stream, in feed order. Beyond the feed
//     queue, a per-shard credit window bounds the update events in flight
//     toward each shard (ShardedLiveConfig.CreditWindow), so a feeder that
//     outruns the shards' apply rate blocks in Feed.
//   - Ownership is total over the vertex-ID space (ShardPlan is
//     block-cyclic), so engines growing their vertex space under the feed
//     never produce an out-of-range owner. A walker stepping onto a vertex
//     the owner's engine has not yet sized simply observes it edgeless —
//     the same dead-end the unsharded engine reports before the inserting
//     batch lands.
//
// Where the shard nodes live is decided by which constructor ran and by
// nothing else: NewShardedLiveService takes local engines and spawns the
// nodes as goroutines over the in-process fabric; NewShardedLiveServiceOver
// takes an already-dialed fabric.CoordPort whose far side hosts them (in
// practice `bingowalk -shard-serve` daemons over tcpgob). Everything else
// — every method below — is the same code on both. All cross-shard
// communication flows through fabric ports; walker delivery is unbounded
// and retires never block, so circular forwarding between shards cannot
// deadlock.
type ShardedLiveService struct {
	coord *coordinator
	// nodes are the shard nodes this service spawned and must wait for at
	// Close; empty over a dialed port, whose nodes belong to their hosts.
	nodes []*shardNode
	// attach opens a read port onto the same shard set (captured at
	// construction: fab.AttachReader in-process, a tcpgob.DialReader
	// closure over a dialed port; nil = the service cannot attach readers).
	attach func() (fabric.ReadPort, error)
	verts  int // construction-time vertex space (acks can only widen it)
}

// ShardedLiveConfig parameterizes a ShardedLiveService.
type ShardedLiveConfig struct {
	// WalkersPerShard is each shard's walker-crew size (default
	// max(1, GOMAXPROCS / shards)).
	WalkersPerShard int
	// WalkLength is the default walk length for Query calls that pass
	// length <= 0 (default 80).
	WalkLength int
	// Seed makes the per-query RNG streams reproducible.
	Seed uint64
	// Cache configures the hub-view caches of every shard node (zero
	// value = enabled with defaults; Cache.Off disables). It takes
	// effect only when the shard engines support versioned views
	// (concurrent.Engine does).
	Cache fabric.CacheSpec
	// CreditWindow bounds the per-shard in-flight (routed but not yet
	// applied) update events. The router stalls — and Feed with it —
	// while a shard's outstanding window is full, turning the daemons'
	// apply rate into end-to-end backpressure instead of unbounded
	// daemon-side queue growth. 0 selects the default (16384); negative
	// disables the window (the pre-credit behavior).
	CreditWindow int
}

// DefaultCreditWindow is the per-shard credit window when the config
// leaves CreditWindow zero.
const DefaultCreditWindow = 16384

func (c ShardedLiveConfig) withDefaults(shards int) ShardedLiveConfig {
	if c.WalkersPerShard <= 0 {
		c.WalkersPerShard = runtime.GOMAXPROCS(0) / shards
		if c.WalkersPerShard < 1 {
			c.WalkersPerShard = 1
		}
	}
	if c.WalkLength <= 0 {
		c.WalkLength = 80
	}
	if c.CreditWindow == 0 {
		c.CreditWindow = DefaultCreditWindow
	}
	return c
}

// ShardedLiveStats snapshots the service counters. Steps, Transfers, and
// Local cover query and bulk walks alike; Batches counts routed feed
// batches, Updates successfully applied events, Dropped failed sub-batches
// (a feed batch splits into at most one sub-batch per shard). Cache
// reports the hub-view cache layers: Cache.RemoteHits are steps at
// non-owned vertices served from a peer's shipped view instead of a
// walker hand-off.
//
// The fields run on two clocks, the same two on every transport.
// Coordinator-side counters are current as of the call: Queries, Steps,
// Transfers, and Local fold in when a walker retires (a walk in flight
// has contributed nothing yet), Batches when the router takes a batch,
// and Failover and Backpressure as their events happen.
// Shard-side counters — Updates, Dropped, ShardSteps, Cache — are each
// shard's cumulative tallies from its latest barrier ack, i.e. as of the
// last Sync (DumpEdges refreshes them too). A caller that wants the two
// clocks to agree quiesces its own walks and calls Sync first; then
// Steps == Local + Cache.RemoteHits and, with no read-coordinators
// attached, the ShardSteps sum to Steps.
type ShardedLiveStats struct {
	Queries, Steps            int64
	Batches, Updates, Dropped int64
	Transfers, Local          int64
	Cache                     fabric.CacheTallies
	// ShardSteps is the per-shard split of the hops the shard set served
	// (indexed by shard; read-coordinators' walks included) — the
	// shard set's load share.
	ShardSteps []int64
	// Corpus tallies the standing-walk-corpus maintenance riding on this
	// service, when one is attached (see CorpusService.ShardedStats; the
	// raw service leaves it zero).
	Corpus fabric.CorpusTallies
	// Failover tallies replica-failover activity (replicated sessions).
	Failover FailoverTallies
	// Backpressure reports the credit window's activity.
	Backpressure BackpressureTallies
}

// FailoverTallies reports a replicated session's failover activity.
type FailoverTallies struct {
	// Deaths counts shard-link death events; Reroutes walkers re-routed
	// to a replica after a forward hit a dead link; Relaunches walker
	// clones relaunched because their originals may have been lost inside
	// a dead daemon.
	Deaths, Reroutes, Relaunches int64
	// Rejoins counts completed rejoin/failback cycles; CopiedBlocks the
	// snapshot blocks shipped while re-priming rejoined shards.
	Rejoins, CopiedBlocks int64
}

// BackpressureTallies reports the credit window's observed pressure.
type BackpressureTallies struct {
	// Window is the configured per-shard credit window (0 = disabled).
	Window int64
	// MaxOutstanding is the largest admitted per-shard in-flight event
	// count; Stalled is the total time the router spent blocked waiting
	// for credits (the time Feed callers were held back).
	MaxOutstanding int64
	Stalled        time.Duration
}

// TransferRatio is walker hand-offs per sampled hop — the share of walk
// progress that cost a cross-shard transfer. Every hop is served either
// by the owning engine (Local) or by a cached remote view
// (Cache.RemoteHits), so Steps = Local + RemoteHits and hand-offs the
// remote cache absorbed pull the ratio down.
func (s ShardedLiveStats) TransferRatio() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Transfers) / float64(s.Steps)
}

// validateReplication rejects replicated plans with more shards than
// the 64-bit dead-mask can track.
func validateReplication(plan ShardPlan) error {
	if plan.Replicas <= 1 {
		return nil
	}
	if plan.Shards > 64 {
		return fmt.Errorf("walk: replication supports at most 64 shards (dead-mask width), got %d", plan.Shards)
	}
	return nil
}

// NewShardedLiveService starts the service over local engines: the shard
// crews, the ingest router, and one ingester per shard run as goroutines
// wired over the in-process shard fabric. engines[i] must already hold
// exactly the rows of the vertices plan assigns to shard i (see
// BootstrapShards) and be safe for concurrent sampling and updating (e.g.
// concurrent.Engine). The service takes ownership of the engines.
func NewShardedLiveService(engines []LiveEngine, plan ShardPlan, cfg ShardedLiveConfig) (*ShardedLiveService, error) {
	if len(engines) == 0 || len(engines) != plan.Shards {
		return nil, fmt.Errorf("walk: %d shard engines for a %d-shard plan", len(engines), plan.Shards)
	}
	cfg = cfg.withDefaults(plan.Shards)
	verts := 0
	for i, e := range engines {
		if _, ok := e.(RangeSnapshotter); plan.Replicas > 1 && !ok {
			return nil, fmt.Errorf("walk: replication needs row snapshots, which shard %d's engine (%T) lacks", i, e)
		}
		verts = max(verts, e.NumVertices())
	}
	if err := validateReplication(plan); err != nil {
		return nil, err
	}
	fab := inproc.New(plan.Shards)
	nodes := make([]*shardNode, plan.Shards)
	for i := range engines {
		nodes[i] = startShardNode(engines[i], plan, i, fab.ShardPort(i), cfg.WalkersPerShard, cfg.Cache, false)
	}
	attach := func() (fabric.ReadPort, error) { return fab.AttachReader(), nil }
	s := newShardedLiveService(fab.CoordPort(), attach, plan, verts, cfg)
	s.nodes = nodes
	return s, nil
}

// NewShardedLiveServiceOver starts the service over an already-dialed
// coordinator port whose far side hosts the shard nodes. numVertices is
// the construction-time vertex space (the hosts size their engines from
// the same session Hello) and plan must match the geometry announced to
// them; attach opens read ports onto the same shard set for AttachReader
// (nil if the deployment has none to offer). The service takes ownership
// of the port: Close ends the session. The shards start empty — see
// ServeShardedOver for the bootstrapped form.
func NewShardedLiveServiceOver(port fabric.CoordPort, attach func() (fabric.ReadPort, error), plan ShardPlan, numVertices int, cfg ShardedLiveConfig) (*ShardedLiveService, error) {
	cfg = cfg.withDefaults(plan.Shards)
	if err := validateReplication(plan); err != nil {
		return nil, err
	}
	return newShardedLiveService(port, attach, plan, numVertices, cfg), nil
}

func newShardedLiveService(port fabric.CoordPort, attach func() (fabric.ReadPort, error), plan ShardPlan, verts int, cfg ShardedLiveConfig) *ShardedLiveService {
	s := &ShardedLiveService{coord: newCoordinator(port, plan, cfg), attach: attach, verts: verts}
	s.coord.noteVerts(int64(verts))
	return s
}

// ServeSharded is the local-engines way a sharded service comes to
// exist, written once: derive the plan for src's vertex space (replicas
// > 1 turns on block replication), cut one engine per shard from src by
// copying the factorized records of exactly its rows (BootstrapShards;
// wrap is where concurrency choices live), start the service. src is
// only read, and stays the caller's.
func ServeSharded(src *core.Sampler, shards, replicas int, wrap func(*core.Sampler) LiveEngine, cfg ShardedLiveConfig) (*ShardedLiveService, error) {
	plan := NewShardPlan(src.NumVertices(), shards)
	if replicas > 1 {
		plan.Replicas = replicas
	}
	return NewShardedLiveService(BootstrapShards(src, plan, wrap), plan, cfg)
}

// ServeShardedOver is the dialed-port way a sharded service comes to
// exist, written once: start the service over the port, stream src's rows
// to the shard hosts through the fabric itself (bootstrap), and return
// once a confirming barrier says every host holds exactly the rows it
// must. src is read during this call; do not mutate it concurrently. The
// hosts must factorize with src's Config for their records to equal
// src's. On failure the session is closed.
func ServeShardedOver(port fabric.CoordPort, attach func() (fabric.ReadPort, error), src *core.Sampler, plan ShardPlan, cfg ShardedLiveConfig) (*ShardedLiveService, error) {
	s, err := NewShardedLiveServiceOver(port, attach, plan, src.NumVertices(), cfg)
	if err != nil {
		port.Close()
		return nil, err
	}
	if err := s.bootstrap(src); err != nil {
		s.Close()
		return nil, fmt.Errorf("walk: bootstrapping shards: %w", err)
	}
	return s, nil
}

// bootstrap streams src's rows to the shards as bootstrap (Boot) batches
// — credit-paced, but excluded from the routed ledger and the shards'
// update tallies, so a bootstrapped session's Updates counter reflects
// feed events alone. Each batch holds whole rows of one owner's vertices,
// read straight from src (AppendRowUpdates): at most fabric.BootstrapChunk
// updates, unless a single row is longer and travels alone. A host thus
// receives every row in one batch, onto an empty record, and bulk-builds
// it in one pass instead of replaying it edge by edge. The owners'
// batches are interleaved, so all hosts build while the next rows are
// read.
func (s *ShardedLiveService) bootstrap(src *core.Sampler) error {
	plan := s.coord.plan
	n := uint64(src.NumVertices())
	// next[o] is the first vertex of owner o whose row has not been read
	// (≥ n once o is done); owner o holds blocks o, o+Shards, ….
	next := make([]uint64, plan.Shards)
	for o := range next {
		next[o], _ = plan.BlockRange(uint64(o))
	}
	for pending := true; pending; {
		pending = false
		for o := range next {
			if next[o] >= n {
				continue
			}
			var rows []graph.Update
			rows, next[o] = ownerRows(src, plan, next[o], n)
			if len(rows) > 0 {
				if err := s.coord.feedBoot(rows); err != nil {
					return err
				}
			}
			pending = pending || next[o] < n
		}
	}
	return s.Sync()
}

// ownerRows reads the rows of the vertices from v on that share v's owner,
// in ascending order, into one bootstrap batch sized exactly, and returns
// it with the vertex to resume from.
func ownerRows(src *core.Sampler, plan ShardPlan, v, n uint64) ([]graph.Update, uint64) {
	rangeSize, skip := uint64(plan.RangeSize), uint64(plan.Shards-1)*uint64(plan.RangeSize)
	step := func(u uint64) uint64 {
		if u++; u%rangeSize == 0 {
			u += skip // past the other owners' blocks
		}
		return u
	}
	size, end := 0, v
	for end < n && size < fabric.BootstrapChunk {
		d := src.Degree(graph.VertexID(end))
		if size > 0 && size+d > fabric.BootstrapChunk {
			break
		}
		size += d
		end = step(end)
	}
	rows := make([]graph.Update, 0, size)
	for u := v; u != end; u = step(u) {
		rows = src.AppendRowUpdates(graph.VertexID(u), rows)
	}
	return rows, end
}

// Shards returns the partition count.
func (s *ShardedLiveService) Shards() int { return s.coord.plan.Shards }

// Plan returns the construction-time partition geometry.
func (s *ShardedLiveService) Plan() ShardPlan { return s.coord.plan }

// LivePlan returns the live ownership plan (epoch and dead-mask
// included).
func (s *ShardedLiveService) LivePlan() ShardPlan { return s.coord.planNow() }

// NumVertices returns the widest vertex space observed across the shards
// (exact as of the last Sync; at least the construction-time space —
// shards grow independently under the feed).
func (s *ShardedLiveService) NumVertices() int {
	n := s.verts
	s.coord.mu.Lock()
	for _, a := range s.coord.acks {
		n = max(n, a.Vertices)
	}
	s.coord.mu.Unlock()
	return n
}

// Query walks from start for up to length steps (<= 0 selects the
// configured default) and returns the visited path, start included. The
// walk begins on the shard owning start and follows the walker-transfer
// topology across shards; it blocks until the walker retires.
func (s *ShardedLiveService) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	return s.coord.Query(start, length)
}

// Feed enqueues a batch for routed ingestion. It blocks when the feed
// queue is full (backpressure) and returns ErrLiveClosed after Close. The
// batch slice is owned by the service once accepted. Per-source ordering
// across Feed calls is preserved shard-side as long as the caller submits
// each source's updates in order (the LiveService contract, unchanged).
func (s *ShardedLiveService) Feed(ups []graph.Update) error {
	return s.coord.Feed(ups)
}

// Sync blocks until every feed batch accepted before the call has been
// applied (or dropped) on its shards, then reports the first ingest error
// observed anywhere. It is the barrier between "fed" and "visible to
// walkers", and it refreshes the ack-carried tallies Stats and
// NumVertices read.
func (s *ShardedLiveService) Sync() error { return s.coord.Sync() }

// DeepWalk runs a bulk first-order walk through the sharded runtime while
// the feed keeps ingesting: every start becomes a transferable walker with
// its own RNG stream. It returns the run's own result and transfer stats
// (service counters accumulate them too).
func (s *ShardedLiveService) DeepWalk(cfg Config) (Result, TransferStats, error) {
	return s.coord.DeepWalk(cfg, s.NumVertices())
}

// DumpEdges reads back every shard's live edge multiset (indexed by
// shard), consistent with all feed batches accepted before the call —
// the verification path the differential harnesses use to match a
// sharded session against a sequential replay edge-for-edge.
func (s *ShardedLiveService) DumpEdges() ([][]graph.Edge, error) {
	return s.coord.DumpEdges()
}

// Stats snapshots the service counters; see ShardedLiveStats for which
// fields are retire-time and which are as of the last Sync. In-process
// callers that want the ingest counters current call Sync first, exactly
// as callers over a wire fabric always had to.
func (s *ShardedLiveService) Stats() ShardedLiveStats {
	c := s.coord
	st := ShardedLiveStats{
		Queries:    c.queries.Load(),
		Steps:      c.steps.Load(),
		Batches:    c.batches.Load(),
		Transfers:  c.transfers.Load(),
		Local:      c.local.Load(),
		ShardSteps: make([]int64, c.plan.Shards),
		Failover:   c.failoverTallies(),
	}
	c.mu.Lock()
	for i, a := range c.acks {
		st.Updates += a.Updates
		st.Dropped += a.Dropped
		st.ShardSteps[i] = a.Steps
		st.Cache.Add(a.Cache)
	}
	c.mu.Unlock()
	st.Backpressure.Window = c.window
	st.Backpressure.MaxOutstanding, st.Backpressure.Stalled = c.backpressureTallies()
	return st
}

// AppliedStamp is the sum of the shards' cumulative applied-update
// stamps from the latest barrier acks — the watermark evidence the
// standing-walk corpus's bounded-staleness check reads. Exact as of the
// last Sync.
func (s *ShardedLiveService) AppliedStamp() int64 { return s.coord.appliedStamp() }

// AttachReader attaches a read-coordinator to this service's shard set:
// the returned ReaderService serves Query and DeepWalk against the same
// shards while this service (the write session) keeps exclusive ownership
// of ingest, credit flow, and replica priming. Any number of readers may
// attach; each detaches independently with Close, and all fail over to
// ErrFabricDown when the write session closes.
func (s *ShardedLiveService) AttachReader(cfg ReaderConfig) (*ReaderService, error) {
	if s.attach == nil {
		return nil, errors.New("walk: this service was built without a read-port constructor")
	}
	if cfg.WalkLength <= 0 {
		cfg.WalkLength = s.coord.walkLength
	}
	port, err := s.attach()
	if err != nil {
		return nil, err
	}
	return NewReaderService(port, cfg)
}

// Err returns the first error observed (nil if none): ingest errors
// arrive with barrier acks, so it is current as of the last Sync.
func (s *ShardedLiveService) Err() error { return s.coord.Err() }

// Close drains the feed (queued batches are applied), waits for every
// in-flight walker to retire, ends the fabric session — the service's own
// nodes stop, remote hosts drain, report, and wind down — and returns the
// first error observed, including ingest errors of its own nodes that no
// barrier had reported yet. Close is idempotent; Query, Feed, Sync, and
// DeepWalk fail with ErrLiveClosed afterwards.
func (s *ShardedLiveService) Close() error {
	err := s.coord.Close()
	for _, n := range s.nodes {
		n.wait()
		if err == nil {
			err = n.firstErr()
		}
	}
	return err
}
