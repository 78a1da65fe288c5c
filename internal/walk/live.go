package walk

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// LiveService instrumentation: end-to-end query latency (enqueue to
// reply, so queueing shows up in the tail) and the ingest tallies,
// labeled by serving tier so the sharded paths can reuse the families.
var (
	liveQueryNs       = obs.H("bingo_query_seconds", "svc", "live")
	liveIngestBatches = obs.C("bingo_ingest_batches_total", "svc", "live")
	liveIngestUpdates = obs.C("bingo_ingest_updates_total", "svc", "live")
	liveIngestDropped = obs.C("bingo_ingest_dropped_total", "svc", "live")
)

// LiveEngine is the contract LiveService requires: a sampling engine whose
// Sample/Degree/HasEdge are safe concurrently with ApplyUpdates (e.g.
// internal/concurrent.Engine). A plain core.Sampler does NOT satisfy the
// safety requirement even though it satisfies the method set.
type LiveEngine interface {
	Engine
	// ApplyUpdates ingests a batch concurrently with sampling.
	ApplyUpdates(ups []graph.Update) error
}

// ErrLiveClosed is returned by Query and Feed after Close.
var ErrLiveClosed = errors.New("walk: live service closed")

// LiveConfig parameterizes a LiveService.
type LiveConfig struct {
	// Walkers is the walker-pool size (default GOMAXPROCS).
	Walkers int
	// WalkLength is the default walk length for Query calls that pass
	// length <= 0 (default 80).
	WalkLength int
	// Seed makes the walker RNG streams reproducible.
	Seed uint64
	// Cache configures the pool walkers' hub-view LRUs (zero value =
	// enabled with defaults; Off disables). Takes effect only when the
	// engine supports versioned views (concurrent.Engine does).
	Cache fabric.CacheSpec
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.Walkers <= 0 {
		c.Walkers = runtime.GOMAXPROCS(0)
	}
	if c.WalkLength <= 0 {
		c.WalkLength = 80
	}
	return c
}

// LiveStats is a snapshot of service counters.
type LiveStats struct {
	// Queries is the number of walk queries served.
	Queries int64
	// Steps is the total walk steps taken across queries.
	Steps int64
	// Batches and Updates count ingested feed batches and their events.
	Batches, Updates int64
	// Dropped counts feed batches whose application failed. The batch is
	// skipped whole (validation rejects it before any update applies), the
	// first such error is retained for Err, and ingestion continues —
	// one malformed batch must not silently void the rest of the feed.
	Dropped int64
	// CacheHits counts walk steps served lock-free from a walker's
	// hub-view cache; CacheStale counts cached views dropped on epoch
	// mismatch (a writer touched the vertex's stripe since extraction).
	CacheHits, CacheStale int64
}

type liveReq struct {
	start  graph.VertexID
	length int
	reply  chan []graph.VertexID
}

// LiveService serves walk queries from a walker pool while a streaming
// update feed mutates the graph — walks and ingestion genuinely overlap,
// which is exactly what the underlying concurrent engine exists for. The
// service is the CPU analogue of the paper's serving setting: walkers are
// the request handlers, the feed is the event stream.
//
//	svc := walk.NewLiveService(eng, walk.LiveConfig{Walkers: 8})
//	go func() { svc.Feed(batch) }()
//	path, err := svc.Query(start, 80)
//	...
//	err = svc.Close()
//
// Queries are served by the pool (reusing the per-walker RNG-stream
// discipline of runParallel); bulk kernels over the live engine remain
// available through Bulk.
type LiveService struct {
	e   LiveEngine
	cfg LiveConfig

	reqs chan liveReq
	feed chan []graph.Update

	// sendMu serializes senders against Close: Feed/Query hold it in read
	// mode across their channel send, Close takes it in write mode before
	// closing the channels, so a send can never hit a closed channel.
	sendMu sync.RWMutex
	closed bool

	walkers   sync.WaitGroup
	ingestRun sync.WaitGroup

	errMu     sync.Mutex
	ingestErr error

	queries, steps, batches, updates, dropped atomic.Int64
	cacheHits, cacheStale                     atomic.Int64
}

// NewLiveService starts the walker pool and the ingest loop.
func NewLiveService(e LiveEngine, cfg LiveConfig) *LiveService {
	cfg = cfg.withDefaults()
	ls := &LiveService{
		e:    e,
		cfg:  cfg,
		reqs: make(chan liveReq, fabric.QueueDepth),
		feed: make(chan []graph.Update, fabric.QueueDepth),
	}
	master := xrand.New(cfg.Seed)
	for i := 0; i < cfg.Walkers; i++ {
		r := master.Split(uint64(i))
		ls.walkers.Add(1)
		go ls.walkLoop(r)
	}
	ls.ingestRun.Add(1)
	go ls.ingestLoop()
	return ls
}

// walkLoop serves queries until the request channel closes; pending queued
// requests are drained first, so every accepted Query gets its reply.
// Each pool walker keeps a private hub-view LRU: hops at hot vertices are
// sampled lock-free from epoch-validated views, with the engine's locked
// path as the fallback (and the only path for engines without views).
func (ls *LiveService) walkLoop(r *xrand.RNG) {
	defer ls.walkers.Done()
	k := newStepKernel(ls.e, ls.cfg.Cache)
	var buf []graph.VertexID
	for req := range ls.reqs {
		buf = walkPath(k.step, req.start, req.length, r, buf)
		path := make([]graph.VertexID, len(buf))
		copy(path, buf)
		ls.queries.Add(1)
		ls.steps.Add(int64(len(path) - 1))
		var hits, stale int64
		k.flushCacheStats(&hits, &stale)
		if hits != 0 {
			ls.cacheHits.Add(hits)
		}
		if stale != 0 {
			ls.cacheStale.Add(stale)
		}
		req.reply <- path
	}
}

// ingestLoop applies feed batches in arrival order (a single ingester keeps
// the feed sequentially consistent: per-source effects land in Feed order).
func (ls *LiveService) ingestLoop() {
	defer ls.ingestRun.Done()
	for b := range ls.feed {
		if err := ls.e.ApplyUpdates(b); err != nil {
			ls.dropped.Add(1)
			liveIngestDropped.Inc()
			ls.errMu.Lock()
			if ls.ingestErr == nil {
				ls.ingestErr = err
			}
			ls.errMu.Unlock()
			continue
		}
		ls.batches.Add(1)
		ls.updates.Add(int64(len(b)))
		liveIngestBatches.Inc()
		liveIngestUpdates.Add(int64(len(b)))
	}
}

// Query walks from start for up to length steps (<= 0 selects the
// configured default) and returns the visited path, start included. It
// blocks until a pool walker serves it.
func (ls *LiveService) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	if length <= 0 {
		length = ls.cfg.WalkLength
	}
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	req := liveReq{start: start, length: length, reply: make(chan []graph.VertexID, 1)}
	ls.sendMu.RLock()
	if ls.closed {
		ls.sendMu.RUnlock()
		return nil, ErrLiveClosed
	}
	ls.reqs <- req
	ls.sendMu.RUnlock()
	path := <-req.reply
	if !t0.IsZero() {
		liveQueryNs.ObserveSince(t0)
	}
	return path, nil
}

// Feed enqueues a batch for ingestion. It blocks when the feed queue is
// full (backpressure) and returns ErrLiveClosed after Close. The batch
// slice is owned by the service once accepted.
func (ls *LiveService) Feed(ups []graph.Update) error {
	ls.sendMu.RLock()
	defer ls.sendMu.RUnlock()
	if ls.closed {
		return ErrLiveClosed
	}
	ls.feed <- ups
	return nil
}

// Bulk runs a whole walk kernel over the live engine through the standard
// parallel runner — a full DeepWalk/PPR/node2vec computation proceeding
// concurrently with the feed.
func (ls *LiveService) Bulk(app App, cfg Config) Result {
	return Run(app, ls.e, cfg)
}

// Stats returns a snapshot of the service counters.
func (ls *LiveService) Stats() LiveStats {
	return LiveStats{
		Queries:    ls.queries.Load(),
		Steps:      ls.steps.Load(),
		Batches:    ls.batches.Load(),
		Updates:    ls.updates.Load(),
		Dropped:    ls.dropped.Load(),
		CacheHits:  ls.cacheHits.Load(),
		CacheStale: ls.cacheStale.Load(),
	}
}

// Err returns the first ingest error observed (nil if none).
func (ls *LiveService) Err() error {
	ls.errMu.Lock()
	defer ls.errMu.Unlock()
	return ls.ingestErr
}

// Close drains both queues — queued feeds are applied, queued queries are
// answered — stops the pool and the ingester, and returns the first ingest
// error. Close is idempotent; Query and Feed fail with ErrLiveClosed
// afterwards.
func (ls *LiveService) Close() error {
	ls.sendMu.Lock()
	if !ls.closed {
		ls.closed = true
		close(ls.feed)
		close(ls.reqs)
	}
	ls.sendMu.Unlock()
	ls.ingestRun.Wait()
	ls.walkers.Wait()
	return ls.Err()
}
