package walk

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
)

// Reader-tier instrumentation: end-to-end query latency plus the
// broadcast-fold and cache-hit tallies that show how much serving stays
// reader-local versus funneling into the shard set.
var (
	readerQueryNs    = obs.H("bingo_query_seconds", "svc", "reader")
	readerBroadcasts = obs.C("bingo_reader_broadcast_folds_total")
	readerPlanFlips  = obs.C("bingo_reader_plan_flips_total")
	readerLocalHits  = obs.C("bingo_reader_cache_hits_total")
	readerLaunches   = obs.C("bingo_reader_launches_total")
)

// ErrNoWriteSession is returned when a read-coordinator attaches to a
// fabric whose write session has already ended (or never started): a
// reader serves against state the write-coordinator owns, so without a
// write session there is nothing to read.
var ErrNoWriteSession = errors.New("walk: no live write session on the fabric")

// ReaderConfig parameterizes a ReaderService.
type ReaderConfig struct {
	// WalkLength is the default walk length for Query calls that pass
	// length <= 0 (default 80).
	WalkLength int
	// Seed makes the reader's per-query RNG streams reproducible.
	Seed uint64
	// Cache configures the reader's hub-view cache (zero value = enabled
	// with defaults; Cache.Off disables reader-local hop serving).
	Cache fabric.CacheSpec
}

func (c ReaderConfig) withDefaults() ReaderConfig {
	if c.WalkLength <= 0 {
		c.WalkLength = 80
	}
	return c
}

// ReaderService is a read-coordinator: a query front end attached to a
// running shard set that the write-coordinator owns. It embeds the same
// walkFront the write coordinator does — walker launch, re-route, and
// retire resolution are that one front end's — over a fabric.ReadPort
// (which stamps the reader's session nonce so shards route retires and
// replies back here), and keeps the front end's plan valid by consuming
// the write-coordinator's broadcast stream — plan epoch, dead-mask,
// routed-update watermarks, applied stamp. What is
// the reader's own is the read side: that broadcast follower, the
// applied-stamp wait, and the hub-view cache that serves a walk's first
// hops before anything is launched. It never touches ingest: Feed, Sync,
// replica priming, and credit flow stay with the write session.
//
// Scaling model: N readers share one shard set. Each serves walk hops
// from its own hub-view cache when a valid cached view covers the
// walker's position (the same watermark-validated remoteViews layer the
// shard nodes use peer-to-peer), and otherwise launches the remainder of
// the walk into the shard set. Hot hub traffic therefore fans out across
// reader processes instead of funneling through the one coordinator —
// aggregate walks/s grows with reader count at fixed shard count.
//
// Consistency: cached views are validated against the broadcast
// watermark vector exactly as shard nodes validate against the
// piggybacked ingest vector. Watermarks are *routed* counts, which only
// run ahead of owners' *applied* counts, so validation drops views
// early, never keeps them late; a plan-epoch or dead-mask flip drops the
// whole cache (conservative, same as the shard-side failover rule).
// AppliedStamp/WaitApplied surface the broadcast applied stamp as the
// reader's bounded-staleness evidence: after the writer's Sync returns,
// the completion broadcast carries a stamp covering everything fed
// before it, and a reader past that stamp serves no older state.
type ReaderService struct {
	walkFront
	port   fabric.ReadPort
	shards int

	rv      *remoteViews
	cacheOn bool

	// lastSeq is the newest broadcast sequence applied (event-loop
	// writes; atomic for Stats).
	lastSeq atomic.Uint64

	// applied is the newest broadcast applied stamp; appliedCond wakes
	// WaitApplied callers when it advances (or the stream dies).
	appliedMu   sync.Mutex
	appliedCond *sync.Cond
	applied     int64
	appliedEnd  bool

	verts atomic.Int64

	localHits, viewReqs, launches atomic.Int64
	planFlips, broadcasts         atomic.Int64

	evloop    sync.WaitGroup
	closeOnce sync.Once
}

// ReaderStats snapshots a read-coordinator's activity.
type ReaderStats struct {
	// Queries and Steps count completed Query walks and their hops
	// (reader-served and shard-served alike); Transfers the cross-shard
	// hand-offs inside shard-served segments.
	Queries, Steps, Transfers int64
	// LocalHits counts hops served from the reader's own hub-view cache
	// (no shard round trip at all); Launches counts walker launches into
	// the shard set; ViewRequests the hub views requested from owners.
	LocalHits, Launches, ViewRequests int64
	// CachedViews is the current hub-view cache population.
	CachedViews int
	// PlanEpoch is the reader's view of the live plan version;
	// Broadcasts the number applied; PlanFlips how many changed the
	// epoch or dead-mask (each flip drops the view cache).
	PlanEpoch  uint64
	Broadcasts int64
	PlanFlips  int64
	// Applied is the newest broadcast applied stamp.
	Applied int64
}

// NewReaderService attaches a read-coordinator to the given read port.
// It blocks until the write session's first broadcast arrives (both
// transports deliver a cached one at attach time) and fails with
// ErrNoWriteSession if the event stream ends first.
func NewReaderService(port fabric.ReadPort, cfg ReaderConfig) (*ReaderService, error) {
	cfg = cfg.withDefaults()
	r := &ReaderService{
		port:    port,
		shards:  port.Shards(),
		cacheOn: !cfg.Cache.Off,
	}
	r.walkFront.init(port, ShardPlan{Shards: r.shards, RangeSize: 1}, cfg.Seed, cfg.WalkLength, readerQueryNs)
	r.appliedCond = sync.NewCond(&r.appliedMu)
	r.rv = newRemoteViews(r.shards, DefaultRemoteViewSize)
	r.rv.ownerOf = func(v graph.VertexID) int { return r.planNow().Owner(v) }
	// The write-coordinator's newest broadcast is cached transport-side
	// and delivered at attach; consume events until it lands so routing
	// is valid before the first Query.
	for {
		ev, ok := port.NextEvent()
		if !ok {
			port.Close()
			return nil, ErrNoWriteSession
		}
		if ev.Kind == fabric.EvBroadcast && ev.Bcast != nil {
			r.applyBroadcast(ev.Bcast)
			break
		}
	}
	obs.Log.Record(obs.EvReaderAttach, -1, "read-coordinator attached")
	r.evloop.Add(1)
	go r.eventLoop()
	return r, nil
}

// NumVertices returns the reader's view of the vertex-space bound (from
// the broadcast stream; the space grows live under the writer's feed).
func (r *ReaderService) NumVertices() int { return int(r.verts.Load()) }

// AppliedStamp returns the newest applied-update stamp the broadcast
// stream has delivered — how much ingest the reader's serving is
// guaranteed to reflect (bounded staleness, monotonic).
func (r *ReaderService) AppliedStamp() int64 {
	r.appliedMu.Lock()
	defer r.appliedMu.Unlock()
	return r.applied
}

// WaitApplied blocks until the reader's applied stamp reaches stamp —
// typically the write side's AppliedStamp() after a Sync, making
// "everything I fed before the Sync" visible through this reader. It
// returns ErrFabricDown if the event stream ends first.
func (r *ReaderService) WaitApplied(stamp int64) error {
	r.appliedMu.Lock()
	defer r.appliedMu.Unlock()
	for r.applied < stamp && !r.appliedEnd {
		r.appliedCond.Wait()
	}
	if r.applied >= stamp {
		return nil
	}
	return ErrFabricDown
}

// eventLoop consumes retires, view replies, and broadcasts until the
// write session (or this reader's port) closes, then fails whatever is
// still pending and wakes WaitApplied callers.
func (r *ReaderService) eventLoop() {
	defer r.evloop.Done()
	for {
		ev, ok := r.port.NextEvent()
		if !ok {
			break
		}
		switch ev.Kind {
		case fabric.EvRetire:
			r.onRetire(ev.Walker)
		case fabric.EvBroadcast:
			r.applyBroadcast(ev.Bcast)
		case fabric.EvView:
			if ev.Rep != nil {
				r.rv.install(ev.Rep)
			}
		}
	}
	r.failPending()
	r.appliedMu.Lock()
	r.appliedEnd = true
	r.appliedCond.Broadcast()
	r.appliedMu.Unlock()
}

// applyBroadcast folds one write-coordinator broadcast in. Broadcasts
// are full-state and idempotent: applied iff not behind the newest seen
// (duplicated per-daemon delivery and cross-link reordering are both
// harmless). An epoch or dead-mask flip drops the whole view cache —
// the conservative invalidation matching the shard nodes' failover rule.
func (r *ReaderService) applyBroadcast(b *fabric.Broadcast) {
	if b == nil || b.Seq < r.lastSeq.Load() {
		return
	}
	r.lastSeq.Store(b.Seq)
	r.broadcasts.Add(1)
	readerBroadcasts.Inc()
	old := r.planNow()
	next := ShardPlan{
		Shards:    r.shards,
		RangeSize: b.RangeSize,
		Epoch:     b.Epoch,
		Replicas:  b.Replicas,
		DeadMask:  b.DeadMask,
	}
	if next.RangeSize <= 0 {
		next.RangeSize = old.RangeSize
	}
	r.planv.Store(&next)
	if next.Epoch != old.Epoch || next.DeadMask != old.DeadMask {
		r.planFlips.Add(1)
		readerPlanFlips.Inc()
		r.rv.dropAll()
	}
	r.rv.advance(b.Watermarks)
	if n := int64(b.Vertices); n > r.verts.Load() {
		r.verts.Store(n)
	}
	r.appliedMu.Lock()
	if b.Applied > r.applied {
		r.applied = b.Applied
		r.appliedCond.Broadcast()
	}
	r.appliedMu.Unlock()
}

// maybeRequestView asks u's owner for its hub view when the crossing
// counter says the traffic warrants it (same churn-aware admission the
// shard nodes use).
func (r *ReaderService) maybeRequestView(u graph.VertexID) {
	if !r.cacheOn || !r.rv.noteCrossing(u) {
		return
	}
	r.viewReqs.Add(1)
	rq := &fabric.ViewRequest{Vertex: u}
	if err := r.port.RequestView(r.planNow().Owner(u), rq); err != nil {
		r.rv.clearInflight(u)
	}
}

// Query walks from start for up to length steps (<= 0 selects the
// configured default) and returns the visited path, start included.
// Hops are served from the reader's own hub-view cache while a valid
// cached view covers the walker's position; the remainder (if any) is
// launched into the shard set through the front end and the retire
// completes the path.
func (r *ReaderService) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	if length <= 0 {
		length = r.walkLength
	}
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	id := r.idSeq.Add(1)
	rng := r.master.Split(id)
	path := make([]graph.VertexID, 1, length+1)
	path[0] = start
	cur, left := start, length
	if r.cacheOn {
		for left > 0 {
			vw, _ := r.rv.get(cur)
			if vw == nil {
				break
			}
			nxt, ok := vw.Sample(rng)
			if !ok {
				break
			}
			path = append(path, nxt)
			cur = nxt
			left--
			r.localHits.Add(1)
		}
	}
	if left == 0 {
		r.queries.Add(1)
		r.steps.Add(int64(length))
		readerLocalHits.Add(int64(length))
		if !t0.IsZero() {
			r.queryNs.ObserveSince(t0)
		}
		return path, nil
	}
	r.maybeRequestView(cur)
	r.launches.Add(1)
	path, err := r.run(&fabric.Walker{
		ID:     id,
		Cur:    cur,
		Left:   left,
		Rng:    rng.State(),
		Record: true,
		Path:   path,
	})
	if err != nil {
		return nil, err
	}
	// The front end folded the shard-served segment's tallies in at the
	// retire; the reader-served hops are this query's own.
	local := int64(length - left)
	r.steps.Add(local)
	readerLocalHits.Add(local)
	readerLaunches.Inc()
	if !t0.IsZero() {
		r.queryNs.ObserveSince(t0)
	}
	return path, nil
}

// DeepWalk runs a bulk first-order walk through the shard set from this
// reader: every start becomes a transferable walker with its own RNG
// stream, exactly as on the write-coordinator, but retires route back
// here. The write session keeps ingesting concurrently.
func (r *ReaderService) DeepWalk(cfg Config) (Result, TransferStats, error) {
	res, ts, err := r.walkFront.DeepWalk(cfg, r.NumVertices())
	r.launches.Add(int64(res.Walkers))
	return res, ts, err
}

// Stats snapshots the reader's activity counters.
func (r *ReaderService) Stats() ReaderStats {
	r.rv.mu.RLock()
	cached := len(r.rv.views)
	r.rv.mu.RUnlock()
	return ReaderStats{
		Queries:      r.queries.Load(),
		Steps:        r.steps.Load(),
		Transfers:    r.transfers.Load(),
		LocalHits:    r.localHits.Load(),
		Launches:     r.launches.Load(),
		ViewRequests: r.viewReqs.Load(),
		CachedViews:  cached,
		PlanEpoch:    r.planNow().Epoch,
		Broadcasts:   r.broadcasts.Load(),
		PlanFlips:    r.planFlips.Load(),
		Applied:      r.AppliedStamp(),
	}
}

// Close detaches the reader: its port closes (in-flight walkers' retires
// are dropped by the transport — nobody is waiting), the event loop
// drains out, and anything still pending fails with ErrFabricDown. The
// write session and every other reader are unaffected. Idempotent.
func (r *ReaderService) Close() error {
	r.closeOnce.Do(func() {
		obs.Log.Record(obs.EvReaderDetach, -1, "read-coordinator detached")
		r.port.Close()
	})
	r.evloop.Wait()
	return nil
}
