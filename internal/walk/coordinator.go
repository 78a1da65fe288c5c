package walk

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
)

// Coordinator instrumentation, resolved once at init. Query latency is
// end to end (launch to retire, queueing included); the credit-stall
// histogram captures each individual router stall, with stalls of at
// least a millisecond also journaled — the ring would drown in entries
// if every microsecond wait were recorded.
var (
	coordQueryNs       = obs.H("bingo_query_seconds", "svc", "coord")
	coordDeepwalkNs    = obs.H("bingo_deepwalk_seconds")
	coordBarrierNs     = obs.H("bingo_barrier_seconds")
	coordIngestBatches = obs.C("bingo_ingest_batches_total", "svc", "coord")
	coordIngestUpdates = obs.C("bingo_ingest_updates_total", "svc", "coord")
	coordCreditStallNs = obs.H("bingo_credit_stall_seconds")
	coordBroadcasts    = obs.C("bingo_broadcasts_total")
)

// journalStallMin is the credit-stall duration below which a stall is
// counted in the histogram but not journaled.
const journalStallMin = time.Millisecond

// coordSeq distinguishes coordinator sessions in the exporter registry
// (a process can host several, e.g. tests or the in-process demo).
var coordSeq atomic.Uint64

// ErrFabricDown is returned by coordinator-side calls whose shard fabric
// session ended before the reply arrived (a daemon died or the transport
// failed). The fabric admits one *write* session at a time plus any
// number of attached read-coordinators; losing the write session ends
// the service — and every reader's event stream with it.
var ErrFabricDown = errors.New("walk: shard fabric session ended")

// coordinator is the write side of a sharded serving runtime over any
// shard fabric: it routes feed batches by owner shard, pushes sync
// barriers, runs the control plane (liveness flips, replica priming,
// broadcasts), and consumes the event stream to complete them. Walker
// launches, re-routes, and retire resolution — Query and DeepWalk — come
// from the embedded walkFront, the same front end every ReaderService
// embeds. ShardedLiveService runs it over whichever fabric.CoordPort it
// was built on; the coordinator cannot tell the transports apart.
type coordinator struct {
	walkFront
	port fabric.CoordPort
	// plan is the construction-time geometry (Shards and RangeSize never
	// change); the front end's planv is the live ownership plan that the
	// liveness flips re-point. Routing and walker launches resolve owners
	// through planNow.
	plan ShardPlan
	cfg  ShardedLiveConfig

	feed   chan coordMsg
	barSeq atomic.Uint64

	// ledger is the per-shard routed-update count (written only by the
	// router goroutine; ledMu guards the writes because broadcastNow
	// snapshots the vector from other threads). A copy rides on every
	// published ingest element as the watermark vector the shards'
	// remote-view caches validate against: a view of a shard-o vertex
	// extracted before routed update k to shard o must not survive a
	// watermark that includes k. The same vector rides on reader-bound
	// broadcasts, where the identical validation keeps reader-side hub
	// caches conservative.
	ledMu  sync.Mutex
	ledger []int64

	// bcastMu serializes broadcast assembly so Seq order matches publish
	// order; bcastSeq numbers broadcasts from 1 (readers apply a
	// broadcast iff its Seq is not behind the newest they have seen).
	bcastMu  sync.Mutex
	bcastSeq uint64

	routing sync.WaitGroup // router loop
	evloop  sync.WaitGroup // event loop

	// The front end's mu (and its dead flag, which fences registrations
	// once the event loop has exited) also guards the write-side
	// completion tables below; Feed and barriers take the front end's
	// sendMu gate like its walk calls do.
	syncs map[uint64]*barrierWait
	acks  []fabric.Ack // latest ack per shard (cumulative tallies)
	// downs marks shards the coordinator currently considers dead (set by
	// the event loop the moment a link dies, cleared by the router at
	// failback): it gates which shards a barrier is published to and
	// which deaths need barrier fixups. rejoins tracks each in-flight
	// rejoin's outstanding block copies.
	downs   []bool
	rejoins map[int]*rejoinState

	// Credit-window flow control (tentpole half 1). routed[s] counts
	// update events (and bootstrap rows) the router has published toward
	// shard s; credited[s] is s's cumulative drain report (monotonic max
	// over EvCredit — credits may arrive reordered across transports).
	// The router blocks in waitCredits while a shard's outstanding window
	// is full, which backs the feed queue up and makes Feed itself block
	// — end-to-end backpressure instead of unbounded daemon ingest
	// queues. credDown lifts the gate for dead links (their drain signal
	// is gone; the death event, not the window, owns them now) and
	// credClosed lifts every gate when the event stream ends.
	window     int64
	credMu     sync.Mutex
	credCond   *sync.Cond
	routed     []int64
	credited   []int64
	credDown   []bool
	credClosed bool
	maxOut     int64 // largest admitted outstanding window (under credMu)
	stallNs    int64 // total router time spent credit-stalled (under credMu)

	// ctrl carries liveness transitions (death, rejoin, failback) into
	// the router goroutine, which priority-drains it: plan flips and
	// their fabric publishes must happen on the router thread to stay
	// ordered against update routing. The event loop never blocks on the
	// feed queue. priming, rejoin bookkeeping, and copySeq are
	// router-owned. copySeq numbers replica-priming copies from 1; the
	// recipients key their block stash by (block, copy epoch).
	ctrl    chan ctrlOp
	priming []bool
	copySeq uint64

	// maxVerts tracks the observed vertex-ID bound (bootstrap sizes via
	// noteVerts, feed batches via the router) — the block-enumeration
	// horizon for replica re-priming.
	maxVerts atomic.Int64

	deaths, rejoinsDone, copiedBlocks atomic.Int64

	batches atomic.Int64

	// obsKey names this session's shard-sample exporter in the obs
	// registry; Close unregisters it so a dead session's tallies stop
	// appearing on /metrics.
	obsKey string
}

// coordMsg is one element of the coordinator's feed queue: an update
// batch to route, or a barrier to push (the shared queue is what orders
// barriers after every batch accepted before them). boot marks a
// bootstrap batch (publishBoot): shipped whole to every holder of its
// rows and credit-counted (it occupies queue space) but kept out of the
// routed ledger and the shards' update tallies (it is not a feed event).
type coordMsg struct {
	ups  []graph.Update
	boot bool
	bar  *barrierWait
}

// ctrlOp is one shard-liveness transition handed to the router.
type ctrlOp struct {
	kind  int
	shard int
}

const (
	ctrlDown  = iota // link died: flip the plan, announce, relaunch lost walkers
	ctrlUp           // link rejoined: reset credits, snapshot-prime its replica blocks
	ctrlClear        // priming finished: flip the shard live again, announce
)

// rejoinState tracks one in-flight rejoin's outstanding block copies
// (guarded by coordinator.mu; resolved by EvMigrated reports).
type rejoinState struct {
	shard     int
	remaining int
	failed    bool
	donors    map[int]bool // shards serving as copy donors for this rejoin
}

// barrierWait tracks one barrier's acknowledgements. The router fills
// sent/acked at publish time: a barrier goes only to shards live at that
// instant, and a shard that dies between publish and ack is force-acked
// by the event loop (synthetic ack — acked[s] is what makes a late real
// ack from a half-dead link unable to double-decrement remaining).
type barrierWait struct {
	seq       uint64
	dump      bool
	remaining int
	published bool
	sent      []bool
	acked     []bool
	err       error
	edges     [][]graph.Edge // per shard, dump barriers only
	done      chan struct{}
}

func newCoordinator(port fabric.CoordPort, plan ShardPlan, cfg ShardedLiveConfig) *coordinator {
	c := &coordinator{
		port:     port,
		plan:     plan,
		cfg:      cfg,
		feed:     make(chan coordMsg, fabric.QueueDepth),
		syncs:    map[uint64]*barrierWait{},
		acks:     make([]fabric.Ack, plan.Shards),
		ledger:   make([]int64, plan.Shards),
		downs:    make([]bool, plan.Shards),
		rejoins:  map[int]*rejoinState{},
		window:   int64(cfg.CreditWindow),
		routed:   make([]int64, plan.Shards),
		credited: make([]int64, plan.Shards),
		credDown: make([]bool, plan.Shards),
		ctrl:     make(chan ctrlOp, 4*plan.Shards+16),
		priming:  make([]bool, plan.Shards),
		copySeq:  1,
	}
	c.walkFront.init(port, plan, cfg.Seed, cfg.WalkLength, coordQueryNs)
	// The write side sees shard deaths, so it keeps launch clones.
	c.specs = map[uint64]*fabric.Walker{}
	c.credCond = sync.NewCond(&c.credMu)
	c.routing.Add(1)
	go c.routerLoop()
	c.evloop.Add(1)
	go c.eventLoop()
	// Re-expose the newest ack-carried shard samples on this process's
	// /metrics, one shard label per node — the coordinator's scrape is
	// fleet-wide whether the shards are goroutines or remote daemons.
	c.obsKey = "coord-" + strconv.FormatUint(coordSeq.Add(1), 10)
	obs.RegisterExporter(c.obsKey, c.writeShardSamples)
	// Seed the broadcast stream so a reader attaching before the first
	// plan flip still finds the session's initial state cached.
	c.broadcastNow()
	return c
}

// writeShardSamples re-emits every shard's latest barrier-ack metrics
// sample with a shard label merged in — the aggregation path that makes
// the coordinator's /metrics cover the whole fleet.
func (c *coordinator) writeShardSamples(w io.Writer) {
	c.mu.Lock()
	samples := make([]obs.Sample, len(c.acks))
	for i := range c.acks {
		samples[i] = c.acks[i].Obs
	}
	c.mu.Unlock()
	for i := range samples {
		obs.WriteSample(w, samples[i], "shard", strconv.Itoa(i))
	}
}

// appliedStamp sums the shards' cumulative applied-update tallies from
// the latest barrier acks — the applied-update stamp the standing-walk
// corpus reads for its bounded-staleness check. Exact as of the last
// barrier (every ack carries cumulative Updates), so a caller that just
// returned from Sync holds proof that everything it fed before the Sync
// is covered by the stamp.
func (c *coordinator) appliedStamp() int64 {
	var n int64
	c.mu.Lock()
	for i := range c.acks {
		n += c.acks[i].Updates
	}
	c.mu.Unlock()
	return n
}

// Err returns the first error the coordinator observed — through acks,
// failed publishes, or walkers the fabric cut short (nil if none).
func (c *coordinator) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// routerLoop splits each feed batch by owner shard, preserving per-source
// order (single router, FIFO per-shard publish streams), and forwards
// barriers to every shard ordered after the batches before them. Every
// published element carries the routed-update ledger as of *after* the
// whole batch was accounted, so a shard learns about updates in flight
// to its peers no later than it learns about its own.
//
// Liveness transitions arrive on the ctrl channel and are drained with
// priority: a plan flip and its fabric announcements must interleave
// with update routing at exactly one point, and running them here — on
// the same goroutine that splits batches — is what makes "before the
// flip" and "after the flip" well-defined for every stream at once.
func (c *coordinator) routerLoop() {
	defer c.routing.Done()
	for {
		select {
		case op := <-c.ctrl:
			c.handleCtrl(op)
			continue
		default:
		}
		select {
		case op := <-c.ctrl:
			c.handleCtrl(op)
		case m, ok := <-c.feed:
			if !ok {
				return
			}
			switch {
			case m.bar != nil:
				c.publishBarrier(m.bar)
			case m.boot:
				c.publishBoot(m.ups)
			default:
				c.routeBatch(m.ups)
			}
		}
	}
}

// routeBatch fans one accepted batch out to its target shards. Without
// replication each update goes to its owner; with replication it goes to
// every live (or priming) member of its block's replica group, so every
// replica holds identical rows built from the identical routed stream —
// the invariant that makes promotion a mask flip. Each per-shard publish
// first passes the credit window.
func (c *coordinator) routeBatch(ups []graph.Update) {
	plan := c.planNow()
	replicated := plan.Replicas > 1
	c.batches.Add(1)
	coordIngestBatches.Inc()
	coordIngestUpdates.Add(int64(len(ups)))
	if replicated {
		// Track the vertex-ID horizon for replica re-priming.
		hi := int64(-1)
		for _, up := range ups {
			if int64(up.Src) > hi {
				hi = int64(up.Src)
			}
			if int64(up.Dst) > hi {
				hi = int64(up.Dst)
			}
		}
		if hi >= 0 {
			c.noteVerts(hi + 1)
		}
	}
	parts := make([][]graph.Update, plan.Shards)
	if !replicated {
		for _, up := range ups {
			parts[plan.Owner(up.Src)] = append(parts[plan.Owner(up.Src)], up)
		}
	} else {
		for _, up := range ups {
			for _, h := range plan.GroupMembers(plan.BlockOf(up.Src)) {
				if plan.Alive(h) || c.priming[h] {
					parts[h] = append(parts[h], up)
				}
			}
		}
	}
	c.ledMu.Lock()
	for i, p := range parts {
		c.ledger[i] += int64(len(p))
	}
	c.ledMu.Unlock()
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		c.waitCredits(i, int64(len(p)))
		if err := c.port.PublishUpdates(i, fabric.Ingest{Ups: p, Watermarks: c.ledgerCopy()}); err != nil {
			if replicated {
				// A dead link announces itself through EvShardDown; the
				// death path re-routes, so a failed publish is not fatal.
				continue
			}
			c.setErr(err)
		}
	}
}

// publishBoot ships one bootstrap batch — whole rows of vertices that
// share one replica group — to every live member of that group as is: no
// split, no copy beyond one per extra holder (each holder's engine sorts
// its batch in place). Like routeBatch it passes the credit window; unlike
// it, it leaves the routed ledger and the batch tallies alone, because
// bootstrap rows are initial state, not feed events. The rows' vertex
// space is the construction-time one, which the coordinator already
// knows.
func (c *coordinator) publishBoot(ups []graph.Update) {
	plan := c.planNow()
	var holders []int
	for _, h := range plan.GroupMembers(plan.BlockOf(ups[0].Src)) {
		if plan.Alive(h) || c.priming[h] {
			holders = append(holders, h)
		}
	}
	batches := make([][]graph.Update, len(holders))
	for k := range holders {
		batches[k] = ups
		if k > 0 {
			batches[k] = slices.Clone(ups)
		}
	}
	for k, h := range holders {
		c.waitCredits(h, int64(len(ups)))
		if err := c.port.PublishUpdates(h, fabric.Ingest{Ups: batches[k], Boot: true, Watermarks: c.ledgerCopy()}); err != nil {
			if plan.Replicas > 1 {
				continue // as in routeBatch: the death path owns a dead link
			}
			c.setErr(err)
		}
	}
}

// waitCredits blocks until shard s's outstanding credit window admits n
// more update events, then charges them. An oversized batch (n alone
// exceeding the window) is admitted whenever the window is empty —
// otherwise it could never be published at all. Gates lift for dead
// links (credDown — the death event owns them) and when the event
// stream ends (credClosed — nothing will ever credit again).
func (c *coordinator) waitCredits(s int, n int64) {
	if c.window <= 0 || n == 0 {
		return
	}
	c.credMu.Lock()
	for !c.credClosed && !c.credDown[s] {
		out := c.routed[s] - c.credited[s]
		if out <= 0 || out+n <= c.window {
			break
		}
		t0 := time.Now()
		c.credCond.Wait()
		d := time.Since(t0)
		c.stallNs += d.Nanoseconds()
		coordCreditStallNs.Observe(d)
		if d >= journalStallMin {
			obs.Log.Record(obs.EvCreditStall, s, d.String())
		}
	}
	c.routed[s] += n
	if out := c.routed[s] - c.credited[s]; out > c.maxOut {
		c.maxOut = out
	}
	c.credMu.Unlock()
}

// onCredit folds one shard's cumulative drain report into the window.
// Monotonic max: transports may reorder credits across link rebuilds,
// and a cumulative counter makes every credit self-repairing.
func (c *coordinator) onCredit(cr *fabric.Credit) {
	if cr == nil || cr.Shard < 0 || cr.Shard >= len(c.credited) {
		return
	}
	c.credMu.Lock()
	if cr.Credited > c.credited[cr.Shard] {
		c.credited[cr.Shard] = cr.Credited
		c.credCond.Broadcast()
	}
	c.credMu.Unlock()
}

// noteVerts raises the observed vertex-space bound (CAS max).
func (c *coordinator) noteVerts(n int64) {
	for {
		cur := c.maxVerts.Load()
		if n <= cur || c.maxVerts.CompareAndSwap(cur, n) {
			return
		}
	}
}

// publishBarrier sends one barrier to every shard live at this instant
// and arms its completion accounting. Dead shards are excluded — their
// replicas answer for their blocks (dump acks are ownership-filtered
// shard-side under replication, so the concatenation stays an exact
// partition). A barrier with no live shards completes immediately.
func (c *coordinator) publishBarrier(bw *barrierWait) {
	wms := c.ledgerCopy()
	c.mu.Lock()
	if _, still := c.syncs[bw.seq]; !still {
		// failPending already resolved it (event stream died first).
		c.mu.Unlock()
		return
	}
	bw.sent = make([]bool, c.plan.Shards)
	bw.acked = make([]bool, c.plan.Shards)
	n := 0
	for i := range bw.sent {
		if !c.downs[i] {
			bw.sent[i] = true
			n++
		}
	}
	bw.remaining = n
	bw.published = true
	if n == 0 {
		delete(c.syncs, bw.seq)
		close(bw.done)
		c.mu.Unlock()
		return
	}
	all := n == c.plan.Shards
	c.mu.Unlock()
	tok := fabric.Ingest{Barrier: bw.seq, Dump: bw.dump, Watermarks: wms}
	if all {
		if err := c.port.PublishBarrier(tok); err != nil {
			c.setErr(err)
		}
		return
	}
	for i := range bw.sent {
		if !bw.sent[i] {
			continue
		}
		if err := c.port.PublishUpdates(i, tok); err != nil && c.planNow().Replicas <= 1 {
			c.setErr(err)
		}
	}
}

// ledgerCopy snapshots the routed-update ledger for one wire message.
func (c *coordinator) ledgerCopy() []int64 {
	c.ledMu.Lock()
	defer c.ledMu.Unlock()
	return append([]int64(nil), c.ledger...)
}

// broadcastNow publishes the coordinator's current control state to
// every attached read-coordinator: live plan (epoch, dead-mask,
// geometry), routed-update watermarks, and the applied stamp. Broadcasts
// are full-state and idempotent, so any single one brings a reader
// current — the transports cache the newest for late attachers. Called
// after every plan flip (death, failback), at session start, and at
// every barrier completion (the applied stamp moved).
func (c *coordinator) broadcastNow() {
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	c.bcastSeq++
	p := c.planNow()
	b := fabric.Broadcast{
		Seq:        c.bcastSeq,
		Epoch:      p.Epoch,
		DeadMask:   p.DeadMask,
		RangeSize:  p.RangeSize,
		Replicas:   p.Replicas,
		Vertices:   int(max(c.maxVerts.Load(), int64(p.RangeSize)*int64(p.Shards))),
		Watermarks: c.ledgerCopy(),
		Applied:    c.appliedStamp(),
	}
	coordBroadcasts.Inc()
	// Best effort: a broadcast that cannot be delivered (session tearing
	// down) only means readers are ending too.
	_ = c.port.PublishBroadcast(b)
}

// handleCtrl runs one liveness transition on the router thread.
func (c *coordinator) handleCtrl(op ctrlOp) {
	switch op.kind {
	case ctrlDown:
		c.ctrlDownOp(op.shard)
	case ctrlUp:
		c.ctrlUpOp(op.shard)
	case ctrlClear:
		c.ctrlClearOp(op.shard)
	}
}

// pushCtrl hands a liveness transition to the router. The buffer is
// sized beyond any realistic burst (a few transitions per link per
// session), and the router cannot be wedged while one is pending: the
// event loop lifts the relevant credit gate before pushing, so a router
// blocked in waitCredits always wakes.
func (c *coordinator) pushCtrl(op ctrlOp) {
	c.ctrl <- op
}

// ctrlDownOp handles one shard's link death: abort any priming the dead
// shard was part of (as rejoiner or as copy donor — a donor death
// strands its copies, and the wedged rejoiner stays conservatively
// masked dead), flip the plan, announce the flip on every live shard's
// FIFO stream (the ordering that makes the dead-mask consistent at
// barrier points), and — once the survivors have confirmed the flip —
// relaunch every in-flight walker from its stored launch clone: anything
// queued inside the dead daemon is gone, and a duplicate retire from a
// walker that was actually elsewhere resolves harmlessly (first retire
// wins).
func (c *coordinator) ctrlDownOp(s int) {
	c.priming[s] = false
	c.mu.Lock()
	delete(c.rejoins, s)
	var abandoned []int
	for rsh, rs := range c.rejoins {
		if rs.donors[s] {
			delete(c.rejoins, rsh)
			abandoned = append(abandoned, rsh)
		}
	}
	c.mu.Unlock()
	for _, a := range abandoned {
		c.priming[a] = false
		c.credMu.Lock()
		c.credDown[a] = true
		c.credCond.Broadcast()
		c.credMu.Unlock()
	}
	plan := c.planNow()
	if !plan.Alive(s) {
		return // rejoin churn: the shard died again while already masked
	}
	next, err := plan.WithDown(s, plan.Epoch+1)
	if err != nil {
		c.setErr(err)
		return
	}
	c.planv.Store(&next)
	obs.Log.Record(obs.EvShardDeath, s, fmt.Sprintf("masked dead (epoch %d)", next.Epoch))
	if next.Replicas > 1 {
		// Each block the dead shard owned now answers from its group's
		// surviving owner — the promotion the mask flip implies.
		obs.Log.Record(obs.EvShardPromote, s, "replica group serving the dead shard's blocks")
	}
	sd := fabric.ShardDown{Shard: s, Epoch: next.Epoch}
	for i := 0; i < c.plan.Shards; i++ {
		if !next.Alive(i) {
			continue
		}
		// Publish errors here are the target's own death in progress;
		// its event fixes the plan again.
		_ = c.port.PublishUpdates(i, fabric.Ingest{Down: sd, Watermarks: c.ledgerCopy()})
	}
	c.broadcastNow() // readers re-route around the new dead-mask
	c.mu.Lock()
	c.flipping++
	c.mu.Unlock()
	go c.confirmFlip()
}

// confirmFlip holds walker re-routes until every survivor has applied
// the death flip the router just published, then relaunches what is
// still pending. The flip rides the FIFO ingest streams, so a survivor
// with an ingest backlog keeps its old plan for a while and hands every
// walker that reaches it back toward the dead shard — where the transport
// fails it (a re-route sent straight back bounces again: the whole
// reroute budget burns in milliseconds on a fast fabric and the query
// fails) or, on a connection the peer has half-closed, accepts it and
// loses it. A barrier behind the flip on every live stream is the
// confirmation: walkers that failed in the window wait for it in
// relaunchWalker, walkers that vanished in it are still pending when it
// completes, and nothing launched afterwards can meet a stale plan. A
// barrier error means the session is ending and failPending owns the
// walkers.
func (c *coordinator) confirmFlip() {
	_ = c.Sync()
	c.mu.Lock()
	c.flipping--
	c.flipCond.Broadcast()
	c.mu.Unlock()
	c.relaunchPending()
}

// ctrlUpOp handles a rejoined shard: reset its credit accounting (a
// restarted daemon's counter begins at 0), start fanning the routed
// stream out to it (priming), send it a plan snapshot — the first
// element on its fresh FIFO stream, catching it up on every flip it
// missed — and snapshot-copy every replica block it should hold from
// that block's live owner. The whole op runs without yielding to the
// feed queue, which is the no-loss/no-duplication cut: updates routed
// before it are in the donors' snapshots (FIFO puts them before the
// offers), updates routed after it reach the rejoiner directly.
func (c *coordinator) ctrlUpOp(s int) {
	plan := c.planNow()
	if plan.Replicas <= 1 || plan.Alive(s) || c.priming[s] {
		return
	}
	c.credMu.Lock()
	c.routed[s], c.credited[s] = 0, 0
	c.credDown[s] = false
	c.credMu.Unlock()
	c.priming[s] = true
	ps := &fabric.PlanState{Epoch: plan.Epoch, DeadMask: plan.DeadMask}
	if err := c.port.PublishUpdates(s, fabric.Ingest{Plan: ps, Watermarks: c.ledgerCopy()}); err != nil {
		c.abortRejoin(s)
		return
	}
	rsize := int64(plan.RangeSize)
	nblocks := (c.maxVerts.Load() + rsize - 1) / rsize
	type copyJob struct {
		block uint64
		donor int
	}
	var jobs []copyJob
	rs := &rejoinState{shard: s, donors: map[int]bool{}}
	for b := int64(0); b < nblocks; b++ {
		bb := uint64(b)
		if !plan.InGroup(bb, s) {
			continue
		}
		donor := plan.BlockOwner(bb)
		if donor == s || !plan.Alive(donor) {
			continue // whole group dead: nothing live to copy from
		}
		jobs = append(jobs, copyJob{bb, donor})
		rs.donors[donor] = true
	}
	if len(jobs) == 0 {
		// Nothing to prime (empty graph, or no live donors): fail back
		// immediately — an empty shard is exactly what its replicas hold
		// for it in that case.
		c.ctrlClearOp(s)
		return
	}
	rs.remaining = len(jobs)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.rejoins[s] = rs
	c.mu.Unlock()
	for _, j := range jobs {
		epoch := c.copySeq
		c.copySeq++
		off := fabric.MigrateOffer{Block: j.block, To: s, Epoch: epoch}
		if err := c.port.PublishUpdates(j.donor, fabric.Ingest{Offer: off, Watermarks: c.ledgerCopy()}); err != nil {
			c.abortRejoin(s)
			return
		}
		cm := fabric.MigrateCommit{Block: j.block, From: j.donor, To: s, Epoch: epoch, MinWatermark: c.ledger[j.donor]}
		if err := c.port.PublishUpdates(s, fabric.Ingest{Commit: cm, Watermarks: c.ledgerCopy()}); err != nil {
			c.abortRejoin(s)
			return
		}
	}
}

// abortRejoin abandons an in-flight rejoin (router thread): the shard
// stays masked dead, its credit gate lifts again, and the session keeps
// running on the survivors. A later EvShardUp retries from scratch —
// copy installs wipe the block range first, so re-priming is idempotent.
func (c *coordinator) abortRejoin(s int) {
	c.priming[s] = false
	c.mu.Lock()
	delete(c.rejoins, s)
	c.mu.Unlock()
	c.credMu.Lock()
	c.credDown[s] = true
	c.credCond.Broadcast()
	c.credMu.Unlock()
}

// ctrlClearOp fails a fully-primed shard back in: flip it live, then
// announce the flip on every live shard's FIFO — including the
// rejoiner's, whose own plan learns the flip in the same ordered stream
// that already carried its snapshot and primed rows. Barriers include
// the shard again from here on.
func (c *coordinator) ctrlClearOp(s int) {
	plan := c.planNow()
	if plan.Alive(s) {
		return
	}
	next, err := plan.WithUp(s, plan.Epoch+1)
	if err != nil {
		c.setErr(err)
		return
	}
	c.planv.Store(&next)
	c.priming[s] = false
	sd := fabric.ShardDown{Shard: s, Epoch: next.Epoch, Up: true}
	for i := 0; i < c.plan.Shards; i++ {
		if !next.Alive(i) {
			continue
		}
		_ = c.port.PublishUpdates(i, fabric.Ingest{Down: sd, Watermarks: c.ledgerCopy()})
	}
	c.mu.Lock()
	c.downs[s] = false
	c.mu.Unlock()
	c.rejoinsDone.Add(1)
	obs.Log.Record(obs.EvShardRejoin, s, fmt.Sprintf("primed and live again (epoch %d)", next.Epoch))
	c.broadcastNow() // readers see the shard live again
}

// eventLoop consumes retires and acks until the fabric's event stream
// ends, then fails whatever is still pending (a clean Close leaves
// nothing pending; a dead session must not leave callers blocked).
func (c *coordinator) eventLoop() {
	defer c.evloop.Done()
	for {
		ev, ok := c.port.NextEvent()
		if !ok {
			break
		}
		switch ev.Kind {
		case fabric.EvRetire:
			c.onRetire(ev.Walker)
		case fabric.EvAck:
			c.onAck(ev.Ack)
		case fabric.EvMigrated:
			if ev.Done != nil {
				c.onCopyDone(ev.Done)
			}
		case fabric.EvCredit:
			c.onCredit(ev.Credit)
		case fabric.EvShardDown:
			c.onShardDown(ev.Shard)
		case fabric.EvShardUp:
			c.onShardUp(ev.Shard)
		}
	}
	c.failPending()
}

// onShardDown reacts to one link's death on the event thread: lift the
// shard's credit gate (its drain signal is gone — a router stalled on
// it must wake *before* the ctrl op can be processed), mark it down for
// barrier publishing, force-ack its outstanding barriers (synthetic
// acks; a late real ack can no longer double-decrement), then hand the
// plan flip to the router. Without replication a shard loss is the end
// of the session, exactly as before.
func (c *coordinator) onShardDown(s int) {
	if s < 0 || s >= c.plan.Shards {
		return
	}
	if c.planNow().Replicas <= 1 {
		c.setErr(ErrFabricDown)
		return
	}
	c.deaths.Add(1)
	c.credMu.Lock()
	c.credDown[s] = true
	c.credCond.Broadcast()
	c.credMu.Unlock()
	c.mu.Lock()
	if !c.downs[s] {
		c.downs[s] = true
		for seq, bw := range c.syncs {
			if bw.published && bw.sent[s] && !bw.acked[s] {
				bw.acked[s] = true
				bw.remaining--
				if bw.remaining <= 0 {
					delete(c.syncs, seq)
					close(bw.done)
				}
			}
		}
	}
	c.mu.Unlock()
	c.pushCtrl(ctrlOp{kind: ctrlDown, shard: s})
}

// onShardUp hands a rejoined link to the router for snapshot priming.
func (c *coordinator) onShardUp(s int) {
	if s < 0 || s >= c.plan.Shards || c.planNow().Replicas <= 1 {
		return
	}
	c.pushCtrl(ctrlOp{kind: ctrlUp, shard: s})
}

// onCopyDone resolves one replica-priming block copy. When a rejoin's
// last copy lands cleanly the router fails the shard back in; any
// failed copy abandons the rejoin (the shard stays masked dead — a
// later reconnect retries from scratch, idempotently).
func (c *coordinator) onCopyDone(d *fabric.MigrateDone) {
	if d.Err == "" {
		c.copiedBlocks.Add(1)
	}
	c.mu.Lock()
	rs := c.rejoins[d.Shard]
	if rs == nil {
		c.mu.Unlock()
		return // abandoned rejoin; straggler report
	}
	if d.Err != "" {
		rs.failed = true
	}
	rs.remaining--
	done := rs.remaining <= 0
	failed := rs.failed
	if done {
		delete(c.rejoins, d.Shard)
	}
	c.mu.Unlock()
	if !done {
		return
	}
	if failed {
		c.pushCtrl(ctrlOp{kind: ctrlDown, shard: d.Shard})
		return
	}
	c.pushCtrl(ctrlOp{kind: ctrlClear, shard: d.Shard})
}

func (c *coordinator) onAck(a *fabric.Ack) {
	if a.Err != "" {
		c.setErr(errors.New(a.Err))
	}
	completed := false
	c.mu.Lock()
	if a.Shard >= 0 && a.Shard < len(c.acks) {
		// Cache the scalar tallies only: a dump barrier's edge snapshot
		// (already handed to its barrierWait below) must not stay live
		// in the session-long table.
		cached := *a
		cached.Edges = nil
		c.acks[a.Shard] = cached
	}
	bw := c.syncs[a.Seq]
	if bw != nil {
		if a.Err != "" && bw.err == nil {
			bw.err = errors.New(a.Err)
		}
		if bw.edges != nil && a.Shard >= 0 && a.Shard < len(bw.edges) {
			bw.edges[a.Shard] = a.Edges
		}
		counted := false
		if bw.acked != nil && a.Shard >= 0 && a.Shard < len(bw.acked) {
			// acked-once: a shard force-acked at its death (synthetic ack)
			// must not decrement again if the real ack straggles in.
			if !bw.acked[a.Shard] {
				bw.acked[a.Shard] = true
				counted = true
			}
		} else {
			counted = true
		}
		if counted {
			bw.remaining--
			if bw.remaining <= 0 {
				delete(c.syncs, a.Seq)
				close(bw.done)
				completed = true
			}
		}
	}
	c.mu.Unlock()
	if completed {
		// The applied stamp just advanced past everything fed before the
		// barrier; push it to readers so their WaitApplied unblocks.
		c.broadcastNow()
	}
}

// failPending unblocks every caller still waiting when the event stream
// dies: the front end fails its walkers (and marks itself dead, which
// fences barrier registrations too — set before the table is swept, so
// nothing can register behind the sweep), then barriers complete with
// the error.
func (c *coordinator) failPending() {
	// Lift every credit gate first: a router blocked in waitCredits must
	// wake (nothing will ever credit again) or Close would deadlock.
	c.credMu.Lock()
	c.credClosed = true
	c.credCond.Broadcast()
	c.credMu.Unlock()
	c.walkFront.failPending()
	c.mu.Lock()
	syncs := c.syncs
	c.syncs = map[uint64]*barrierWait{}
	c.rejoins = map[int]*rejoinState{}
	c.mu.Unlock()
	for _, bw := range syncs {
		if bw.err == nil {
			bw.err = ErrFabricDown
		}
		close(bw.done)
	}
	if len(syncs) > 0 {
		c.setErr(ErrFabricDown)
	}
}

// Feed enqueues a batch for routed ingestion. It blocks when the feed
// queue is full (backpressure) and returns ErrLiveClosed after Close. The
// batch slice is owned by the coordinator once accepted; per-source order
// across Feed calls is preserved shard-side (the LiveService contract).
func (c *coordinator) Feed(ups []graph.Update) error {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	if c.closed {
		return ErrLiveClosed
	}
	c.feed <- coordMsg{ups: ups}
	return nil
}

// feedBoot enqueues a bootstrap batch for publishBoot: whole rows of
// vertices that share one replica group, shipped to every holder.
func (c *coordinator) feedBoot(ups []graph.Update) error {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	if c.closed {
		return ErrLiveClosed
	}
	c.feed <- coordMsg{ups: ups, boot: true}
	return nil
}

// barrier pushes a sync (optionally dump) barrier through the feed queue
// and blocks until every shard acknowledged it.
func (c *coordinator) barrier(dump bool) (*barrierWait, error) {
	c.sendMu.RLock()
	if c.closed {
		c.sendMu.RUnlock()
		return nil, ErrLiveClosed
	}
	bw := &barrierWait{
		seq:       c.barSeq.Add(1),
		dump:      dump,
		remaining: c.plan.Shards,
		done:      make(chan struct{}),
	}
	if dump {
		bw.edges = make([][]graph.Edge, c.plan.Shards)
	}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		c.sendMu.RUnlock()
		return nil, ErrFabricDown
	}
	c.syncs[bw.seq] = bw
	c.mu.Unlock()
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	c.feed <- coordMsg{bar: bw}
	c.sendMu.RUnlock()
	<-bw.done
	if !t0.IsZero() {
		coordBarrierNs.ObserveSince(t0)
	}
	return bw, nil
}

// Sync blocks until every feed batch accepted before the call has been
// applied (or dropped) on its shards, then reports the first ingest
// error observed anywhere.
func (c *coordinator) Sync() error {
	bw, err := c.barrier(false)
	if err != nil {
		return err
	}
	if bw.err != nil {
		return bw.err
	}
	return c.Err()
}

// DumpEdges drives a dump barrier: it returns every shard's live edge
// multiset as of a point after all previously accepted feed batches
// (the read-back path distributed verification is built on).
func (c *coordinator) DumpEdges() ([][]graph.Edge, error) {
	bw, err := c.barrier(true)
	if err != nil {
		return nil, err
	}
	return bw.edges, bw.err
}

// Close drains the feed (queued batches are routed and applied), waits
// for every in-flight walker to retire, ends the fabric session, and
// waits for the event stream to wind down. Idempotent.
func (c *coordinator) Close() error {
	c.sendMu.Lock()
	first := !c.closed
	if first {
		c.closed = true
		close(c.feed)
	}
	c.sendMu.Unlock()
	if first {
		c.routing.Wait() // every accepted batch published
		c.pending.Wait() // every accepted walker retired
		c.port.Close()
		obs.UnregisterExporter(c.obsKey)
	}
	c.evloop.Wait()
	return c.Err()
}

// backpressureTallies snapshots the credit window's activity.
func (c *coordinator) backpressureTallies() (maxOutstanding int64, stall time.Duration) {
	c.credMu.Lock()
	defer c.credMu.Unlock()
	return c.maxOut, time.Duration(c.stallNs)
}

// failoverTallies snapshots the replica-failover activity counters.
func (c *coordinator) failoverTallies() FailoverTallies {
	return FailoverTallies{
		Deaths:       c.deaths.Load(),
		Reroutes:     c.walkerReroutes.Load(),
		Relaunches:   c.relaunched.Load(),
		Rejoins:      c.rejoinsDone.Load(),
		CopiedBlocks: c.copiedBlocks.Load(),
	}
}
