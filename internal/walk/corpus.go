package walk

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// Corpus-maintenance instrumentation: refresh cycle count and duration,
// plus the truncate/regrow volume each cycle repairs. Refreshes are
// interval-coalesced, so the record rate is bounded by the config, not
// the feed.
var (
	corpusRefreshes      = obs.C("bingo_corpus_refreshes_total")
	corpusRefreshNs      = obs.H("bingo_corpus_refresh_seconds")
	corpusResamples      = obs.C("bingo_corpus_resamples_total")
	corpusResampledSteps = obs.C("bingo_corpus_resampled_steps_total")
)

// This file is the standing walk corpus: instead of re-walking from
// scratch per query, the service maintains K walks × L steps per vertex
// continuously valid under the update feed and serves queries as corpus
// slices. The Wharf insight (PAPERS.md) is that an edge update only
// invalidates the *suffixes* of walks that passed through the updated
// vertex, so repair is incremental:
//
//   - An inverted walk index maps visited vertex → (walkID, position)
//     postings, packed walkID<<16|pos and bucketed by the vertex's owner
//     shard, so "which walks does this update dirty, and where" is one
//     map probe.
//   - The ingest path coalesces: Feed records each applied update's
//     source vertex in a deduped touch map (hub churn collapses to one
//     entry per hub however many events land), and a credit window
//     bounds the outstanding (fed but not yet refreshed) events the
//     same way the coordinator's router credits bound daemon queues —
//     Feed blocks instead of the queue growing without bound.
//   - A refresh loop drains the touch map: resolve touches through the
//     index to each dirty walk's *earliest* stale position, truncate
//     there, and regrow every suffix together — one bulk frontier
//     through the stepping kernel (unsharded), or a fan-out of
//     walker queries through the sharded runtime, whose crews batch
//     frontiers themselves.
//   - Queries carry a bounded-staleness guarantee: the corpus watermark
//     (fed events fully incorporated) must trail the query watermark
//     (fed events at query time) by at most the configured bound,
//     otherwise the query falls back to a fresh walk. On the sharded
//     backend the watermark only advances after a barrier whose acks'
//     cumulative applied-update stamps (fabric.Ack.Updates) confirm the
//     fed events applied — staleness is enforced by applied evidence,
//     not by wishful accounting.
//
// The amortization telemetry rides fabric.CorpusTallies: ResampledSteps
// (hops actually regrown) over FullWalkSteps (the per-update full
// recompute counterfactual) is the resample amplification the bench
// gates on.

// CorpusConfig parameterizes a CorpusService.
type CorpusConfig struct {
	// WalksPerVertex is K, the standing walks kept per vertex (default 2).
	WalksPerVertex int
	// WalkLength is L, each standing walk's step budget (default 80).
	// L must fit the index's 16-bit position field (L <= 65535).
	WalkLength int
	// Seed makes the regrow RNG streams reproducible.
	Seed uint64
	// StalenessBound is the maximum fed-but-unincorporated update events
	// a corpus-served query may lag the feed by; beyond it the query
	// falls back to a fresh walk. 0 selects the default (4096); negative
	// disables the fallback (always serve the corpus).
	StalenessBound int64
	// RefreshInterval is the coalescing window: after the first touch
	// wakes the refresh loop, it waits this long before draining so a
	// churn burst collapses into one resample cycle (default 2ms).
	RefreshInterval time.Duration
	// CreditWindow bounds the outstanding (fed but not yet refreshed)
	// touch events before Feed blocks — the corpus-side analogue of the
	// router's per-shard ingest credits. 0 selects DefaultCreditWindow;
	// negative disables the cap.
	CreditWindow int
	// Cache configures the unsharded regrow kernel's hub-view cache
	// (fabric semantics: zero value = on with defaults, Off disables).
	Cache fabric.CacheSpec
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.WalksPerVertex <= 0 {
		c.WalksPerVertex = 2
	}
	if c.WalkLength <= 0 {
		c.WalkLength = 80
	}
	if c.StalenessBound == 0 {
		c.StalenessBound = 4096
	}
	if c.RefreshInterval == 0 {
		c.RefreshInterval = 2 * time.Millisecond
	}
	if c.CreditWindow == 0 {
		c.CreditWindow = DefaultCreditWindow
	}
	return c
}

// CorpusServiceStats snapshots a corpus service's counters.
type CorpusServiceStats struct {
	// Queries counts Query calls; CorpusServed those answered from the
	// standing corpus; StaleServed the corpus-served subset that lagged
	// the feed (but within the bound); Fallbacks those served as fresh
	// walks because the bound was blown, the start vertex has no corpus,
	// or the requested length exceeds the standing length.
	Queries, CorpusServed, StaleServed, Fallbacks int64
	// Refreshes counts completed refresh cycles; Resamples walks
	// truncated and regrown; ResampledSteps the suffix hops sampled
	// doing it; FullWalkSteps the per-update full-recompute
	// counterfactual those hops replaced.
	Refreshes, Resamples, ResampledSteps, FullWalkSteps int64
	// RefreshLagMs is the maximum observed touch-to-refresh latency.
	RefreshLagMs int64
	// MaxOutstanding is the peak credit-gated outstanding touch-event
	// count; Pending the outstanding count right now.
	MaxOutstanding, Pending int64
	// Walks is the corpus size (K × vertices).
	Walks int64
	// FedEvents is the query watermark source (update events accepted);
	// CorpusWatermark the fed events fully incorporated in the corpus;
	// AppliedStamp the backend's summed ack stamps at the last refresh
	// (sharded backends only — the bounded-staleness evidence).
	FedEvents, CorpusWatermark, AppliedStamp int64
}

// Amplification is ResampledSteps per counterfactual full-recompute step
// — below 1 the incremental corpus is cheaper than re-walking, and the
// bench gates on < 0.2 (≥ 5× cheaper).
func (s CorpusServiceStats) Amplification() float64 {
	if s.FullWalkSteps == 0 {
		return 0
	}
	return float64(s.ResampledSteps) / float64(s.FullWalkSteps)
}

// corpusJob is one dirty walk's regrow order: the prefix [0..pos] is
// kept, and up to grow steps are resampled from cur (= the walk's vertex
// at pos).
type corpusJob struct {
	walk int
	pos  int
	cur  graph.VertexID
	grow int
}

// CorpusService maintains the standing corpus. One instance serves
// queries from the corpus, coalesces feed touches, and repairs dirty
// suffixes on its refresh goroutine; it fronts either a single live
// engine (NewCorpusService) or a sharded serving runtime
// (NewShardedCorpusService).
type CorpusService struct {
	cfg  CorpusConfig
	plan ShardPlan
	numV int

	// Exactly one backend is set: local+kern for the unsharded service
	// (the corpus owns ingestion and regrows on its own frontier),
	// svc for the sharded one (feed, regrow queries, and the
	// applied-stamp evidence all go through the sharded runtime).
	local LiveEngine
	kern  *stepKernel
	svc   *ShardedLiveService

	master *xrand.RNG
	rngSeq uint64        // regrow stream counter (refresh goroutine only)
	qseq   atomic.Uint64 // fallback fresh-walk stream counter

	stride int // L+1 vertices per walk slot

	// mu guards the corpus proper: the flattened walks, their live
	// lengths, the inverted index buckets, and the serving rotation.
	mu      sync.Mutex
	walks   []graph.VertexID
	wlen    []int32
	buckets []map[graph.VertexID][]uint64
	rot     []uint32

	// tmu guards the coalescing touch queue and its credit gate.
	tmu     sync.Mutex
	tcond   *sync.Cond
	touches map[graph.VertexID]int64
	pending int64 // outstanding (enqueued − drained) touch events
	maxOut  int64
	oldest  time.Time
	closed  bool

	kick       chan struct{}
	refreshReq chan chan error
	stop       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup

	fed      atomic.Int64 // update events accepted (query watermark)
	corpusWM atomic.Int64 // fed events fully incorporated
	applied  atomic.Int64 // backend ack stamp at last refresh

	errMu      sync.Mutex
	refreshErr error

	queries, corpusServed, staleServed, fallbacks atomic.Int64
	resamples, resampledSteps, fullWalkSteps      atomic.Int64
	refreshes, lagMs                              atomic.Int64
}

// NewCorpusService builds the standing corpus over a single live engine
// and starts the refresh loop. The corpus owns ingestion: Feed applies
// each batch to the engine itself (so fed == applied trivially), then
// coalesces the touches. The engine must be safe for concurrent
// sampling and updating (e.g. concurrent.Engine).
func NewCorpusService(e LiveEngine, cfg CorpusConfig) (*CorpusService, error) {
	numV := e.NumVertices()
	c, err := newCorpus(cfg, NewShardPlan(numV, 1), numV)
	if err != nil {
		return nil, err
	}
	c.local = e
	c.kern = newStepKernel(e, c.cfg.Cache)
	if err := c.build(); err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.refreshLoop()
	return c, nil
}

// NewShardedCorpusService builds the standing corpus over a sharded
// serving runtime (a ShardedLiveService over either fabric) and starts
// the refresh loop. The corpus takes ownership of the backend: Feed
// forwards to it, suffix regrows run as walker
// queries through it, refreshes barrier it (Sync) so the corpus
// watermark only advances on applied-stamp evidence, and Close closes
// it. numVertices is the vertex space to maintain walks for (vertices
// grown past it by the feed are served as fresh walks).
func NewShardedCorpusService(svc *ShardedLiveService, numVertices int, cfg CorpusConfig) (*CorpusService, error) {
	c, err := newCorpus(cfg, svc.Plan(), numVertices)
	if err != nil {
		return nil, err
	}
	c.svc = svc
	if err := c.build(); err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.refreshLoop()
	return c, nil
}

func newCorpus(cfg CorpusConfig, plan ShardPlan, numV int) (*CorpusService, error) {
	cfg = cfg.withDefaults()
	if numV <= 0 {
		return nil, fmt.Errorf("walk: corpus needs a non-empty vertex space, got %d", numV)
	}
	if cfg.WalkLength > 0xffff {
		return nil, fmt.Errorf("walk: corpus walk length %d exceeds the index's 16-bit position field (max %d)", cfg.WalkLength, 0xffff)
	}
	c := &CorpusService{
		cfg:        cfg,
		plan:       plan,
		numV:       numV,
		master:     xrand.New(cfg.Seed),
		stride:     cfg.WalkLength + 1,
		touches:    make(map[graph.VertexID]int64),
		kick:       make(chan struct{}, 1),
		refreshReq: make(chan chan error),
		stop:       make(chan struct{}),
	}
	c.tcond = sync.NewCond(&c.tmu)
	nWalks := numV * cfg.WalksPerVertex
	c.walks = make([]graph.VertexID, nWalks*c.stride)
	c.wlen = make([]int32, nWalks)
	c.rot = make([]uint32, numV)
	c.buckets = make([]map[graph.VertexID][]uint64, plan.Shards)
	for i := range c.buckets {
		c.buckets[i] = make(map[graph.VertexID][]uint64)
	}
	return c, nil
}

// build grows the initial corpus: every walk seated on its start vertex,
// then one bulk regrow of all suffixes. Construction steps are not
// maintenance, so they stay out of the resample tallies.
func (c *CorpusService) build() error {
	K := c.cfg.WalksPerVertex
	jobs := make([]corpusJob, 0, c.numV*K)
	for v := 0; v < c.numV; v++ {
		for k := 0; k < K; k++ {
			w := v*K + k
			c.walks[w*c.stride] = graph.VertexID(v)
			c.wlen[w] = 1
			c.addPosting(graph.VertexID(v), pack(w, 0))
			jobs = append(jobs, corpusJob{walk: w, pos: 0, cur: graph.VertexID(v), grow: c.cfg.WalkLength})
		}
	}
	sufs, err := c.regrow(jobs)
	c.install(jobs, sufs)
	return err
}

// pack encodes a posting: walkID in the high bits, position in the low
// 16 (positions never exceed L, validated at construction).
func pack(walkID, pos int) uint64 { return uint64(walkID)<<16 | uint64(pos) }

func (c *CorpusService) addPosting(v graph.VertexID, p uint64) {
	b := c.buckets[c.plan.Owner(v)]
	b[v] = append(b[v], p)
}

func (c *CorpusService) removePosting(v graph.VertexID, p uint64) {
	b := c.buckets[c.plan.Owner(v)]
	posts := b[v]
	for i, q := range posts {
		if q == p {
			posts[i] = posts[len(posts)-1]
			posts = posts[:len(posts)-1]
			break
		}
	}
	if len(posts) == 0 {
		delete(b, v)
	} else {
		b[v] = posts
	}
}

// indexEnd is the last indexed position of walk w: a position is indexed
// iff a (re)sampled step can leave it — every position short of the step
// budget, including a dead end's final vertex (an insert there must wake
// the walk), but not a full-length walk's terminal vertex.
func (c *CorpusService) indexEnd(w int) int {
	return min(int(c.wlen[w])-1, c.cfg.WalkLength-1)
}

// Feed applies a batch through the backend, coalesces its touches into
// the resample queue under the credit gate, and advances the fed
// watermark — in that order, so any event counted by a query watermark
// already has its touch queued for the refresh that will cover it. It
// blocks while the outstanding touch-event window is full (the
// credited-backpressure cap) and returns ErrLiveClosed after Close. The
// batch slice is owned by the service once accepted.
func (c *CorpusService) Feed(ups []graph.Update) error {
	if len(ups) == 0 {
		return nil
	}
	if c.svc != nil {
		if err := c.svc.Feed(ups); err != nil {
			return err
		}
	} else {
		if err := c.local.ApplyUpdates(ups); err != nil {
			return err
		}
	}
	n := int64(len(ups))
	c.tmu.Lock()
	if c.cfg.CreditWindow > 0 {
		// Same admission rule as the router's waitCredits: a batch wider
		// than the whole window is admitted once the queue is empty —
		// otherwise it could never proceed.
		for !c.closed && c.pending > 0 && c.pending+n > int64(c.cfg.CreditWindow) {
			c.tcond.Wait()
		}
	}
	if c.closed {
		c.tmu.Unlock()
		return ErrLiveClosed
	}
	if len(c.touches) == 0 {
		c.oldest = time.Now()
	}
	for i := range ups {
		c.touches[ups[i].Src]++
	}
	c.pending += n
	if c.pending > c.maxOut {
		c.maxOut = c.pending
	}
	c.tmu.Unlock()
	c.fed.Add(n)
	select {
	case c.kick <- struct{}{}:
	default:
	}
	return nil
}

// Query returns a walk of up to length steps from start. Inside the
// staleness bound it is a corpus slice (round-robin over the vertex's K
// standing walks); a blown bound, a vertex outside the maintained space,
// or a length beyond the standing budget falls back to a fresh walk.
func (c *CorpusService) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	select {
	case <-c.stop:
		return nil, ErrLiveClosed
	default:
	}
	if length <= 0 {
		length = c.cfg.WalkLength
	}
	c.queries.Add(1)
	qWM := c.fed.Load()
	cWM := c.corpusWM.Load()
	lag := qWM - cWM
	if int(start) >= c.numV || length > c.cfg.WalkLength ||
		(c.cfg.StalenessBound >= 0 && lag > c.cfg.StalenessBound) {
		c.fallbacks.Add(1)
		return c.freshWalk(start, length)
	}
	K := c.cfg.WalksPerVertex
	c.mu.Lock()
	k := int(c.rot[start]) % K
	c.rot[start]++
	w := int(start)*K + k
	base := w * c.stride
	n := int(c.wlen[w])
	if n > length+1 {
		n = length + 1
	}
	path := make([]graph.VertexID, n)
	copy(path, c.walks[base:base+n])
	c.mu.Unlock()
	c.corpusServed.Add(1)
	if lag > 0 {
		c.staleServed.Add(1)
	}
	return path, nil
}

// freshWalk serves a query the corpus cannot: a walker query through the
// sharded backend, or a locked per-hop walk on the local engine.
func (c *CorpusService) freshWalk(start graph.VertexID, length int) ([]graph.VertexID, error) {
	if c.svc != nil {
		return c.svc.Query(start, length)
	}
	r := xrand.New(c.cfg.Seed).Split(^c.qseq.Add(1))
	return walkPath(c.local.Sample, start, length, r, nil), nil
}

// Sync forces a refresh cycle — drain the touch queue, barrier the
// backend, regrow every dirty suffix — and blocks until the corpus
// watermark has caught up with every Feed accepted before the call.
func (c *CorpusService) Sync() error {
	reply := make(chan error, 1)
	select {
	case c.refreshReq <- reply:
		return <-reply
	case <-c.stop:
		return ErrLiveClosed
	}
}

func (c *CorpusService) refreshLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			// Final drain: the corpus a test or differential reads after
			// Close reflects every accepted Feed.
			if err := c.runRefresh(); err != nil {
				c.setErr(err)
			}
			return
		case reply := <-c.refreshReq:
			err := c.runRefresh()
			if err != nil {
				c.setErr(err)
			}
			reply <- err
		case <-c.kick:
			// The coalescing window: let a churn burst pile into the touch
			// map so one resample cycle covers it all.
			if d := c.cfg.RefreshInterval; d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-c.stop:
					t.Stop()
					if err := c.runRefresh(); err != nil {
						c.setErr(err)
					}
					return
				}
			}
			if err := c.runRefresh(); err != nil {
				c.setErr(err)
			}
		}
	}
}

// runRefresh executes one refresh cycle. Watermark discipline: the fed
// watermark is read first, then the touch map is stolen, and only then
// does the backend barrier run. The steal MUST precede the barrier: a
// touch is recorded only after its batch was handed to the backend, so
// every stolen touch's updates were routed before the barrier started
// and the regrow below samples a graph that includes them. (Barrier
// first would open a window — a Feed landing between the barrier and
// the drain gets its touch consumed while its updates still sit in a
// shard queue, and the stale regrown suffix is never repaired; the
// full-package differential caught exactly that.) Touches recorded
// after the steal simply wait for the next cycle, and the corpus
// watermark advances to the pre-steal fed value only after the dirty
// suffixes are regrown.
func (c *CorpusService) runRefresh() error {
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	fedWM := c.fed.Load()
	c.tmu.Lock()
	t := c.touches
	var drained int64
	for _, n := range t {
		drained += n
	}
	c.touches = make(map[graph.VertexID]int64)
	oldest := c.oldest
	c.oldest = time.Time{}
	c.pending -= drained
	c.tcond.Broadcast()
	c.tmu.Unlock()

	if c.svc != nil {
		if err := c.svc.Sync(); err != nil {
			return err
		}
		c.applied.Store(c.svc.AppliedStamp())
	}
	var err error
	if len(t) > 0 {
		err = c.resampleTouched(t)
	}
	if err == nil {
		c.corpusWM.Store(fedWM)
	}
	c.refreshes.Add(1)
	corpusRefreshes.Inc()
	if !t0.IsZero() {
		corpusRefreshNs.ObserveSince(t0)
		obs.Log.Record(obs.EvCorpusRefresh, -1,
			fmt.Sprintf("%d touches drained, %v", drained, time.Since(t0).Round(time.Microsecond)))
	}
	if !oldest.IsZero() {
		if lag := time.Since(oldest).Milliseconds(); lag > c.lagMs.Load() {
			c.lagMs.Store(lag)
		}
	}
	return err
}

// resampleTouched repairs the corpus after a drained touch set: resolve
// each touched vertex's postings to per-walk minimum dirty positions
// (the walkID-level coalescing dedupe — a walk dirtied at ten positions
// by ten events regrows once, from the earliest), truncate, regrow all
// suffixes as one batch, and reinstall walks and postings.
func (c *CorpusService) resampleTouched(t map[graph.VertexID]int64) error {
	L := c.cfg.WalkLength
	c.mu.Lock()
	dirty := make(map[int]int)
	var full int64
	distinct := make(map[int]struct{})
	for v, events := range t {
		posts := c.buckets[c.plan.Owner(v)][v]
		if len(posts) == 0 {
			continue
		}
		clear(distinct)
		for _, p := range posts {
			w := int(p >> 16)
			pos := int(p & 0xffff)
			distinct[w] = struct{}{}
			if old, ok := dirty[w]; !ok || pos < old {
				dirty[w] = pos
			}
		}
		// The counterfactual: a full per-update recompute re-walks every
		// walk that visited v at full length, once per applied event.
		full += events * int64(len(distinct)) * int64(L)
	}
	jobs := make([]corpusJob, 0, len(dirty))
	for w, pos := range dirty {
		base := w * c.stride
		for q := pos + 1; q <= c.indexEnd(w); q++ {
			c.removePosting(c.walks[base+q], pack(w, q))
		}
		c.wlen[w] = int32(pos + 1)
		jobs = append(jobs, corpusJob{walk: w, pos: pos, cur: c.walks[base+pos], grow: L - pos})
	}
	c.mu.Unlock()

	sufs, err := c.regrow(jobs)
	steps := c.install(jobs, sufs)
	c.resamples.Add(int64(len(jobs)))
	c.resampledSteps.Add(steps)
	c.fullWalkSteps.Add(full)
	corpusResamples.Add(int64(len(jobs)))
	corpusResampledSteps.Add(steps)
	return err
}

// regrow samples every job's suffix: through the frontier kernel
// on the local engine, or as concurrent walker queries through the
// sharded backend (whose shard crews batch frontiers themselves). A
// failed sharded query leaves its suffix empty — the walk stays
// truncated, index-consistent, and is repaired on its next touch.
func (c *CorpusService) regrow(jobs []corpusJob) ([][]graph.VertexID, error) {
	sufs := make([][]graph.VertexID, len(jobs))
	if len(jobs) == 0 {
		return sufs, nil
	}
	if c.svc == nil {
		c.regrowLocal(jobs, sufs)
		return sufs, nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				path, err := c.svc.Query(jobs[i].cur, jobs[i].grow)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				sufs[i] = path[1:]
			}
		}()
	}
	wg.Wait()
	return sufs, firstErr
}

// regrowLocal drives all suffixes as one batched frontier through the
// stepping kernel: refill free slots from the job
// list, step the whole frontier one hop, append the drawn hops to their
// suffixes, and swap-compact retired walks — the deepWalkChunk loop
// shape, with suffix buffers as the per-slot payload.
func (c *CorpusService) regrowLocal(jobs []corpusJob, sufs [][]graph.VertexID) {
	capSlots := min(len(jobs), kernelBatch)
	f := getFrontier(capSlots)
	defer putFrontier(f)
	ji := make([]int, capSlots)  // frontier slot → job index
	rem := make([]int, capSlots) // steps left per slot
	next, n := 0, 0
	for next < len(jobs) || n > 0 {
		for n < capSlots && next < len(jobs) {
			f.cur[n] = jobs[next].cur
			c.master.SplitInto(c.rngSeq, f.slotRNG(n))
			c.rngSeq++
			ji[n] = next
			rem[n] = jobs[next].grow
			next++
			n++
		}
		f.n = n
		c.kern.stepBatch(f)
		for i := 0; i < n; {
			if f.ok[i] {
				j := ji[i]
				sufs[j] = append(sufs[j], f.next[i])
				f.cur[i] = f.next[i]
				rem[i]--
			}
			if !f.ok[i] || rem[i] == 0 {
				n--
				f.swap(i, n)
				ji[i], ji[n] = ji[n], ji[i]
				rem[i], rem[n] = rem[n], rem[i]
			} else {
				i++
			}
		}
	}
}

// install writes the regrown suffixes back into the corpus and the
// index, returning the suffix steps installed.
func (c *CorpusService) install(jobs []corpusJob, sufs [][]graph.VertexID) int64 {
	L := c.cfg.WalkLength
	var steps int64
	c.mu.Lock()
	for i := range jobs {
		j := jobs[i]
		base := j.walk * c.stride
		n := j.pos
		for _, v := range sufs[i] {
			n++
			c.walks[base+n] = v
			if n <= L-1 {
				c.addPosting(v, pack(j.walk, n))
			}
		}
		c.wlen[j.walk] = int32(n + 1)
		steps += int64(len(sufs[i]))
	}
	c.mu.Unlock()
	return steps
}

// Tallies snapshots the maintenance counters in the fabric's shared
// vocabulary.
func (c *CorpusService) Tallies() fabric.CorpusTallies {
	return fabric.CorpusTallies{
		Resamples:      c.resamples.Load(),
		ResampledSteps: c.resampledSteps.Load(),
		FullWalkSteps:  c.fullWalkSteps.Load(),
		RefreshLagMs:   c.lagMs.Load(),
		StaleServed:    c.staleServed.Load(),
		Fallbacks:      c.fallbacks.Load(),
	}
}

// Stats snapshots the corpus service counters.
func (c *CorpusService) Stats() CorpusServiceStats {
	c.tmu.Lock()
	pending, maxOut := c.pending, c.maxOut
	c.tmu.Unlock()
	return CorpusServiceStats{
		Queries:         c.queries.Load(),
		CorpusServed:    c.corpusServed.Load(),
		StaleServed:     c.staleServed.Load(),
		Fallbacks:       c.fallbacks.Load(),
		Refreshes:       c.refreshes.Load(),
		Resamples:       c.resamples.Load(),
		ResampledSteps:  c.resampledSteps.Load(),
		FullWalkSteps:   c.fullWalkSteps.Load(),
		RefreshLagMs:    c.lagMs.Load(),
		MaxOutstanding:  maxOut,
		Pending:         pending,
		Walks:           int64(len(c.wlen)),
		FedEvents:       c.fed.Load(),
		CorpusWatermark: c.corpusWM.Load(),
		AppliedStamp:    c.applied.Load(),
	}
}

// ShardedStats returns the sharded backend's service stats with the
// corpus tallies riding in the Corpus field — the ShardedLiveStats
// surface the CLI and benches print (zero-backed for unsharded corpora).
func (c *CorpusService) ShardedStats() ShardedLiveStats {
	var st ShardedLiveStats
	if c.svc != nil {
		st = c.svc.Stats()
	}
	st.Corpus = c.Tallies()
	return st
}

// Err returns the first refresh error observed (nil if none).
func (c *CorpusService) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.refreshErr
}

func (c *CorpusService) setErr(err error) {
	if err == nil {
		return
	}
	c.errMu.Lock()
	if c.refreshErr == nil {
		c.refreshErr = err
	}
	c.errMu.Unlock()
}

// Close drains the touch queue through a final refresh, stops the
// refresh loop, closes the backend (sharded), and returns the first
// refresh error. Idempotent; Query, Feed, and Sync fail with
// ErrLiveClosed afterwards.
func (c *CorpusService) Close() error {
	c.closeOnce.Do(func() {
		c.tmu.Lock()
		c.closed = true
		c.tcond.Broadcast()
		c.tmu.Unlock()
		close(c.stop)
	})
	c.wg.Wait()
	if c.svc != nil {
		c.setErr(c.svc.Close())
	}
	return c.Err()
}
