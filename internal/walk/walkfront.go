package walk

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// maxWalkerReroutes caps how many times one walker may be re-routed or
// relaunched across shard deaths before its session call fails — a
// backstop against relaunch loops when the fleet keeps churning.
const maxWalkerReroutes = 32

// walkLauncher is the one fabric call the front end makes; both
// fabric.CoordPort and fabric.ReadPort provide it.
type walkLauncher interface {
	LaunchWalker(dst int, w *fabric.Walker) error
}

// walkFront is the walk front end of the sharded runtime: the one place
// a walker is launched into the shard set, re-routed around a dead link,
// and resolved when its retire comes back. The write coordinator and
// every ReaderService embed it; each feeds it the retires from its own
// event stream (onRetire), keeps planv current from its own source of
// plan flips (the router on the write side, the broadcast stream on the
// read side), and calls failPending when that stream ends.
type walkFront struct {
	port       walkLauncher
	planv      atomic.Pointer[ShardPlan] // live ownership plan; launches resolve owners through planNow
	master     *xrand.RNG                // Split-only after construction (reads, no state advance)
	idSeq      atomic.Uint64
	walkLength int            // default for Query length <= 0
	queryNs    *obs.Histogram // end-to-end Query latency (launch to retire, queueing included)

	// sendMu serializes launching callers against the owner's Close,
	// exactly as in LiveService: they hold it in read mode across their
	// registration and launch. Only the write coordinator ever closes the
	// gate; a reader's Close ends its event stream instead, which fences
	// later calls through dead.
	sendMu sync.RWMutex
	closed bool

	pending sync.WaitGroup // in-flight walkers (queries and bulk)

	// mu guards the pending tables the owner's event loop resolves, and
	// the dead flag that fences new registrations once that loop has
	// exited. specs keeps a clone of every in-flight walker's launch state
	// so walkers swallowed by a dead daemon can be relaunched; only an
	// owner that sees shard deaths allocates it (nil = keep no clones).
	mu      sync.Mutex
	dead    bool // event stream ended; nothing will ever resolve again
	replies map[uint64]chan []graph.VertexID
	bulks   map[uint64]*bulkRun
	specs   map[uint64]*fabric.Walker
	// flipping counts death flips published to the shard set that the
	// survivors have not all confirmed yet (see coordinator.confirmFlip);
	// walker re-routes wait on flipCond until it drains.
	flipping int
	flipCond *sync.Cond

	// Retire-time tallies: a walker's counts fold in when it resolves.
	queries, steps, transfers, local atomic.Int64
	walkerReroutes, relaunched       atomic.Int64

	errMu sync.Mutex
	err   error
}

// bulkRun aggregates one DeepWalk invocation across its walkers.
type bulkRun struct {
	steps, transfers, local, remote atomic.Int64
	failed                          atomic.Bool
	visits                          *visitCounter
	wg                              sync.WaitGroup
}

func (f *walkFront) init(port walkLauncher, plan ShardPlan, seed uint64, walkLength int, queryNs *obs.Histogram) {
	f.port = port
	f.planv.Store(&plan)
	f.master = xrand.New(seed)
	f.walkLength = walkLength
	f.queryNs = queryNs
	f.replies = map[uint64]chan []graph.VertexID{}
	f.bulks = map[uint64]*bulkRun{}
	f.flipCond = sync.NewCond(&f.mu)
}

// planNow returns the live ownership plan.
func (f *walkFront) planNow() ShardPlan { return *f.planv.Load() }

func (f *walkFront) setErr(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// Query walks from start for up to length steps (<= 0 selects the
// configured default) and returns the visited path, start included. The
// walk begins on the shard owning start and follows the walker-transfer
// topology; the call blocks until the walker retires.
func (f *walkFront) Query(start graph.VertexID, length int) ([]graph.VertexID, error) {
	if length <= 0 {
		length = f.walkLength
	}
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	id := f.idSeq.Add(1)
	path := make([]graph.VertexID, 1, length+1)
	path[0] = start
	p, err := f.run(&fabric.Walker{
		ID:     id,
		Cur:    start,
		Left:   length,
		Rng:    f.master.Split(id).State(),
		Record: true,
		Path:   path,
	})
	if err == nil && !t0.IsZero() {
		f.queryNs.ObserveSince(t0)
	}
	return p, err
}

// run launches one recording walker toward the owner of its current
// vertex and blocks until it resolves, returning its path.
func (f *walkFront) run(wk *fabric.Walker) ([]graph.VertexID, error) {
	reply := make(chan []graph.VertexID, 1)
	f.sendMu.RLock()
	if f.closed {
		f.sendMu.RUnlock()
		return nil, ErrLiveClosed
	}
	keepSpec := f.specs != nil && f.planNow().Replicas > 1
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		f.sendMu.RUnlock()
		return nil, ErrFabricDown
	}
	// pending.Add must happen before the registration is visible: the
	// matching Done comes from the event loop (retire or failPending),
	// which may run the instant the lock is released.
	f.pending.Add(1)
	f.replies[wk.ID] = reply
	if keepSpec {
		// The clone outlives the launch: a shard death relaunches every
		// pending walker from its stored spec (registered before the
		// launch so no death can fall between them unseen).
		f.specs[wk.ID] = cloneWalker(wk)
	}
	f.mu.Unlock()
	f.launch(wk)
	f.sendMu.RUnlock()
	p := <-reply
	if p == nil {
		return nil, ErrFabricDown
	}
	return p, nil
}

// send hands w to the shard owning its current vertex under the live
// plan.
func (f *walkFront) send(w *fabric.Walker) error {
	return f.port.LaunchWalker(f.planNow().Owner(w.Cur), w)
}

// launch sends a registered walker on its way. A launch that hits a dead
// link is retried toward whatever replica the flipped plan names; without
// replication the walker resolves as failed on the spot.
func (f *walkFront) launch(w *fabric.Walker) {
	err := f.send(w)
	switch {
	case err == nil:
	case f.planNow().Replicas > 1:
		go f.relaunchWalker(w)
	default:
		f.setErr(err)
		f.fail(w)
	}
}

// fail resolves w as failed through the normal retire path, with its
// reroute budget spent so nothing re-routes it again.
func (f *walkFront) fail(w *fabric.Walker) {
	w.Failed = true
	w.Reroutes = maxWalkerReroutes
	f.onRetire(w)
}

// relaunchWalker retries launching a walker toward its vertex's current
// owner until a live link accepts it — the plan flip races the launch,
// so early attempts may still name the dead shard — after waiting out
// any death flip the shard set has not confirmed yet: a survivor still on
// the old plan would hand the walker straight back toward the dead shard
// and burn its reroute budget in milliseconds.
func (f *walkFront) relaunchWalker(w *fabric.Walker) {
	f.mu.Lock()
	for f.flipping > 0 {
		f.flipCond.Wait()
	}
	f.mu.Unlock()
	for i := 0; i < 50; i++ {
		if f.send(w) == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.fail(w)
}

// relaunchPending re-launches a clone of every still-pending walker (its
// original may be lost inside a dead daemon). Each clone burns one
// reroute from the walker's budget, which bounds relaunch churn across
// repeated deaths; a duplicate retire from a walker that was actually
// elsewhere resolves harmlessly (first retire wins).
func (f *walkFront) relaunchPending() {
	f.mu.Lock()
	clones := make([]*fabric.Walker, 0, len(f.specs))
	for _, w := range f.specs {
		if w.Reroutes >= maxWalkerReroutes {
			continue
		}
		w.Reroutes++
		clones = append(clones, cloneWalker(w))
	}
	f.mu.Unlock()
	for _, w := range clones {
		f.relaunched.Add(1)
		go f.relaunchWalker(w)
	}
}

// cloneWalker deep-copies a walker's launch state (Path is the only
// reference field).
func cloneWalker(w *fabric.Walker) *fabric.Walker {
	cp := *w
	cp.Path = append([]graph.VertexID(nil), w.Path...)
	return &cp
}

// onRetire resolves the pending entry a retired walker names. The first
// retire wins: a walker relaunched after a shard death may finish twice,
// and a retire may straggle in after failPending.
func (f *walkFront) onRetire(w *fabric.Walker) {
	if w == nil {
		return
	}
	f.mu.Lock()
	reply, isQ := f.replies[w.ID]
	var run *bulkRun
	if !isQ {
		if run = f.bulks[w.ID]; run == nil {
			f.mu.Unlock()
			return
		}
	}
	if w.Failed && f.planNow().Replicas > 1 && w.Reroutes < maxWalkerReroutes {
		// A crew's forward hit a dead link. The retire carries the
		// walker's exact mid-walk state (position, budget, RNG), so it
		// continues on a live replica instead of failing the caller.
		f.mu.Unlock()
		w.Failed = false
		w.Reroutes++
		f.walkerReroutes.Add(1)
		go f.relaunchWalker(w)
		return
	}
	if isQ {
		delete(f.replies, w.ID)
	} else {
		delete(f.bulks, w.ID)
	}
	delete(f.specs, w.ID)
	f.mu.Unlock()
	// Tallies fold in only at resolution, so a duplicate or rerouted
	// retire never double-counts.
	f.steps.Add(w.Steps)
	f.transfers.Add(w.Transfers)
	f.local.Add(w.Local)
	if w.Failed {
		f.setErr(ErrFabricDown)
	}
	if isQ {
		f.queries.Add(1)
		if w.Failed {
			reply <- nil // run maps a nil path to ErrFabricDown
		} else {
			reply <- w.Path
		}
		f.pending.Done()
		return
	}
	run.steps.Add(w.Steps)
	run.transfers.Add(w.Transfers)
	run.local.Add(w.Local)
	run.remote.Add(w.Remote)
	if w.Failed {
		run.failed.Store(true)
	} else if run.visits != nil {
		for _, v := range w.Path {
			run.visits.bump(v)
		}
	}
	run.wg.Done()
	f.pending.Done()
}

// failPending unblocks every caller still waiting when the owner's event
// stream dies: queries and bulk runs complete with ErrFabricDown. It also
// marks the front end dead under the same lock registrations take, so no
// later caller can register into a table nothing will ever resolve.
func (f *walkFront) failPending() {
	f.mu.Lock()
	f.dead = true
	replies, bulks := f.replies, f.bulks
	f.replies = map[uint64]chan []graph.VertexID{}
	f.bulks = map[uint64]*bulkRun{}
	clear(f.specs)
	f.mu.Unlock()
	for _, ch := range replies {
		ch <- nil
		f.pending.Done()
	}
	for _, run := range bulks {
		run.failed.Store(true)
		run.wg.Done()
		f.pending.Done()
	}
	if len(replies)+len(bulks) > 0 {
		f.setErr(ErrFabricDown)
	}
}

// DeepWalk runs a bulk first-order walk through the sharded runtime while
// the feed keeps ingesting: every start becomes a transferable walker
// with its own RNG stream. numVertices is the caller's view of the
// current vertex space (default start set and visit-tally sizing). A run
// that lost a walker to the fabric returns what the others tallied along
// with ErrFabricDown.
//
// Visit counting rides on walker paths: a CountVisits run makes every
// walker record its hops and the front end folds them into the tally at
// retire, which is what lets the identical protocol cross a process
// boundary (shards share no counter). The cost is O(len(starts) × Length)
// transient path memory across in-flight walkers — bound the start set
// for visit-counting runs over very large graphs.
func (f *walkFront) DeepWalk(cfg Config, numVertices int) (Result, TransferStats, error) {
	cfg = cfg.withDefaults()
	starts := startsOf(cfg, numVertices)
	run := &bulkRun{}
	if cfg.CountVisits {
		run.visits = newVisitCounter(numVertices)
	}
	bulkMaster := xrand.New(cfg.Seed)
	wks := make([]*fabric.Walker, len(starts))
	for i, st := range starts {
		if run.visits != nil {
			run.visits.bump(st)
		}
		wks[i] = &fabric.Walker{
			ID:     f.idSeq.Add(1),
			Cur:    st,
			Left:   cfg.Length,
			Rng:    bulkMaster.Split(uint64(i)).State(),
			Record: cfg.CountVisits,
		}
	}

	f.sendMu.RLock()
	if f.closed {
		f.sendMu.RUnlock()
		return Result{}, TransferStats{}, ErrLiveClosed
	}
	// Register every walker before launching any: a retire must never
	// find its run missing. The Adds precede the registrations for the
	// same reason as in run: failPending may Done them the instant the
	// lock drops.
	keepSpecs := f.specs != nil && f.planNow().Replicas > 1
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		f.sendMu.RUnlock()
		return Result{}, TransferStats{}, ErrFabricDown
	}
	run.wg.Add(len(wks))
	f.pending.Add(len(wks))
	for _, wk := range wks {
		f.bulks[wk.ID] = run
		if keepSpecs {
			f.specs[wk.ID] = cloneWalker(wk)
		}
	}
	f.mu.Unlock()
	for _, wk := range wks {
		f.launch(wk)
	}
	f.sendMu.RUnlock()
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	run.wg.Wait()
	if !t0.IsZero() {
		coordDeepwalkNs.ObserveSince(t0)
	}

	res := Result{Walkers: len(starts), Steps: run.steps.Load()}
	if run.visits != nil {
		res.Visits = run.visits.snapshot()
	}
	ts := TransferStats{Transfers: run.transfers.Load(), Local: run.local.Load(), Remote: run.remote.Load()}
	if run.failed.Load() {
		return res, ts, ErrFabricDown
	}
	return res, ts, nil
}
