// Package inproc is the in-process shard fabric: the channel-and-mailbox
// plumbing the original ShardedLiveService hard-wired, extracted behind
// the fabric port interfaces. It is the behavior-identical baseline the
// sharded differential harness validates, and the reference point the
// loopback-TCP transport is measured against.
//
// Topology: per shard, one unbounded walker mailbox (launches and peer
// transfers) and one *bounded* ingest channel (the bound is the
// backpressure the router propagates to Feed, exactly as before the
// extraction); one unbounded event mailbox carries retires and acks back
// to the coordinator. The event mailbox closes only after every shard
// port has closed — the shard-done handshake that lets the coordinator's
// event loop drain everything a shard produced before exiting.
package inproc

import (
	"fmt"
	"sync"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/obs"
)

// Per-stream-kind message counters, resolved once at init: the inproc
// fabric has no frames or bytes, but the same per-kind traffic view as
// the wire transport keeps the two fabrics comparable on /metrics.
var (
	msgWalkers   = obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", "walker")
	msgUpdates   = obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", "updates")
	msgBarriers  = obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", "barrier")
	msgViews     = obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", "view")
	msgBlocks    = obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", "mig_block")
	msgEvents    = obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", "event")
	msgBroadcast = obs.C("bingo_fabric_msgs_total", "fabric", "inproc", "kind", "broadcast")
)

// Fabric is an in-process shard interconnect. Create one per session,
// hand CoordPort to the write-coordinator, ShardPort(i) to shard i's
// node, and AttachReader to each read-coordinator.
type Fabric struct {
	shards  int
	walkers []*fabric.Mailbox[*fabric.Walker]
	ingests []chan *fabric.Ingest
	views   []*fabric.Mailbox[*fabric.ViewMsg]
	blocks  []*fabric.Mailbox[*fabric.MigrateBlock]
	events  *fabric.Mailbox[fabric.Event]

	mu         sync.Mutex
	coordDone  bool
	shardsOpen int

	// Reader registry: attach nonce → event mailbox. lastBcast caches the
	// write-coordinator's newest broadcast so a late attacher starts from
	// current state instead of waiting for the next flip.
	readerMu  sync.Mutex
	readers   map[uint64]*fabric.Mailbox[fabric.Event]
	readerSeq uint64
	lastBcast *fabric.Broadcast
}

// New builds a fabric for shards nodes, each ingest stream buffered to
// fabric.QueueDepth.
func New(shards int) *Fabric {
	f := &Fabric{
		shards:     shards,
		walkers:    make([]*fabric.Mailbox[*fabric.Walker], shards),
		ingests:    make([]chan *fabric.Ingest, shards),
		views:      make([]*fabric.Mailbox[*fabric.ViewMsg], shards),
		blocks:     make([]*fabric.Mailbox[*fabric.MigrateBlock], shards),
		events:     fabric.NewMailbox[fabric.Event](),
		shardsOpen: shards,
	}
	for i := range f.walkers {
		f.walkers[i] = fabric.NewMailbox[*fabric.Walker]()
		f.ingests[i] = make(chan *fabric.Ingest, fabric.QueueDepth)
		f.views[i] = fabric.NewMailbox[*fabric.ViewMsg]()
		f.blocks[i] = fabric.NewMailbox[*fabric.MigrateBlock]()
	}
	f.readers = map[uint64]*fabric.Mailbox[fabric.Event]{}
	return f
}

// AttachReader registers a read-coordinator on the fabric and returns its
// port. The cached last broadcast (if the write-coordinator has published
// one) is delivered immediately, so the reader can build its initial plan
// without waiting for the next flip. Any number of readers may attach;
// each detaches independently with Close, and all reader event streams
// end when the write session closes.
func (f *Fabric) AttachReader() fabric.ReadPort {
	mb := fabric.NewMailbox[fabric.Event]()
	f.readerMu.Lock()
	f.readerSeq++
	nonce := f.readerSeq
	f.readers[nonce] = mb
	last := f.lastBcast
	f.readerMu.Unlock()
	f.mu.Lock()
	done := f.coordDone
	f.mu.Unlock()
	if done {
		// No live write session: the reader observes an already-ended
		// event stream instead of hanging on a dead fabric.
		mb.Close()
	} else if last != nil {
		b := *last
		mb.Push(fabric.Event{Kind: fabric.EvBroadcast, Bcast: &b})
	}
	return &readPort{f: f, nonce: nonce, events: mb}
}

// readerEvents returns the event mailbox for an origin nonce (nil when
// the reader has detached — its traffic is dropped, not misdelivered).
func (f *Fabric) readerEvents(origin uint64) *fabric.Mailbox[fabric.Event] {
	f.readerMu.Lock()
	defer f.readerMu.Unlock()
	return f.readers[origin]
}

// CoordPort returns the coordinator's endpoint.
func (f *Fabric) CoordPort() fabric.CoordPort { return (*coordPort)(f) }

// ShardPort returns shard k's endpoint.
func (f *Fabric) ShardPort(k int) fabric.ShardPort {
	if k < 0 || k >= f.shards {
		panic(fmt.Sprintf("inproc: shard %d of %d", k, f.shards))
	}
	return &shardPort{f: f, shard: k}
}

// shardDone records one shard port closing; the last one closes the
// event stream.
func (f *Fabric) shardDone() {
	f.mu.Lock()
	f.shardsOpen--
	last := f.shardsOpen == 0
	f.mu.Unlock()
	if last {
		f.events.Close()
	}
}

type coordPort Fabric

func (c *coordPort) Shards() int { return c.shards }

func (c *coordPort) LaunchWalker(dst int, w *fabric.Walker) error {
	msgWalkers.Inc()
	c.walkers[dst].Push(w)
	return nil
}

func (c *coordPort) PublishUpdates(dst int, in fabric.Ingest) error {
	msgUpdates.Inc()
	c.ingests[dst] <- &in
	return nil
}

func (c *coordPort) PublishBarrier(in fabric.Ingest) error {
	msgBarriers.Add(int64(len(c.ingests)))
	for i := range c.ingests {
		tok := in
		c.ingests[i] <- &tok
	}
	return nil
}

func (c *coordPort) NextEvent() (fabric.Event, bool) { return c.events.Pop() }

// PublishBroadcast caches the broadcast for late attachers and fans a
// copy to every attached reader's event stream.
func (c *coordPort) PublishBroadcast(b fabric.Broadcast) error {
	msgBroadcast.Inc()
	f := (*Fabric)(c)
	f.readerMu.Lock()
	cp := b
	f.lastBcast = &cp
	mbs := make([]*fabric.Mailbox[fabric.Event], 0, len(f.readers))
	for _, mb := range f.readers {
		mbs = append(mbs, mb)
	}
	f.readerMu.Unlock()
	for _, mb := range mbs {
		bc := b
		mb.Push(fabric.Event{Kind: fabric.EvBroadcast, Bcast: &bc})
	}
	return nil
}

// Close ends the session: every shard's ingest channel is closed (the
// single ingester drains what is queued, then exits), the walker
// mailboxes close (crews drain, then exit), and every attached reader's
// event stream ends — readers cannot outlive the write session that owns
// the plan. The caller guarantees no publisher or launcher is still
// running — the coordinator stops its router and waits for in-flight
// walkers first. Idempotent.
func (c *coordPort) Close() error {
	c.mu.Lock()
	done := c.coordDone
	c.coordDone = true
	c.mu.Unlock()
	if done {
		return nil
	}
	for i := range c.ingests {
		close(c.ingests[i])
		c.walkers[i].Close()
		c.views[i].Close()
		c.blocks[i].Close()
	}
	f := (*Fabric)(c)
	f.readerMu.Lock()
	mbs := make([]*fabric.Mailbox[fabric.Event], 0, len(f.readers))
	for _, mb := range f.readers {
		mbs = append(mbs, mb)
	}
	f.readerMu.Unlock()
	for _, mb := range mbs {
		mb.Close()
	}
	return nil
}

type shardPort struct {
	f     *Fabric
	shard int
	once  sync.Once
}

func (p *shardPort) Shard() int { return p.shard }

func (p *shardPort) NextWalker() (*fabric.Walker, bool) {
	return p.f.walkers[p.shard].Pop()
}

func (p *shardPort) NextWalkers(dst []*fabric.Walker, max int) ([]*fabric.Walker, bool) {
	return p.f.walkers[p.shard].PopUpTo(dst, max)
}

func (p *shardPort) NextIngest() (*fabric.Ingest, bool) {
	in, ok := <-p.f.ingests[p.shard]
	return in, ok
}

func (p *shardPort) ForwardWalker(dst int, w *fabric.Walker) error {
	msgWalkers.Inc()
	p.f.walkers[dst].Push(w)
	return nil
}

func (p *shardPort) RequestView(dst int, rq *fabric.ViewRequest) error {
	msgViews.Inc()
	p.f.views[dst].Push(&fabric.ViewMsg{Req: rq})
	return nil
}

func (p *shardPort) ReplyView(dst int, rp *fabric.ViewReply) error {
	if rp.Origin != 0 {
		// A reader-originated request: the reply goes to that reader's
		// event stream (dropped if it detached), not a peer view stream.
		if mb := p.f.readerEvents(rp.Origin); mb != nil {
			mb.Push(fabric.Event{Kind: fabric.EvView, Rep: rp})
		}
		return nil
	}
	p.f.views[dst].Push(&fabric.ViewMsg{Rep: rp})
	return nil
}

func (p *shardPort) NextView() (*fabric.ViewMsg, bool) {
	return p.f.views[p.shard].Pop()
}

func (p *shardPort) SendBlock(dst int, mb *fabric.MigrateBlock) error {
	msgBlocks.Inc()
	p.f.blocks[dst].Push(mb)
	return nil
}

func (p *shardPort) NextBlock() (*fabric.MigrateBlock, bool) {
	return p.f.blocks[p.shard].Pop()
}

func (p *shardPort) Migrated(d *fabric.MigrateDone) error {
	p.f.events.Push(fabric.Event{Kind: fabric.EvMigrated, Done: d})
	return nil
}

func (p *shardPort) Credit(c *fabric.Credit) error {
	p.f.events.Push(fabric.Event{Kind: fabric.EvCredit, Credit: c})
	return nil
}

func (p *shardPort) Retire(w *fabric.Walker) error {
	if w.Origin != 0 {
		// A read-coordinator's walker: route the retire to its origin
		// (dropped if the reader detached mid-walk — nobody is waiting).
		if mb := p.f.readerEvents(w.Origin); mb != nil {
			mb.Push(fabric.Event{Kind: fabric.EvRetire, Walker: w})
		}
		return nil
	}
	p.f.events.Push(fabric.Event{Kind: fabric.EvRetire, Walker: w})
	return nil
}

func (p *shardPort) Ack(a *fabric.Ack) error {
	msgEvents.Inc()
	p.f.events.Push(fabric.Event{Kind: fabric.EvAck, Ack: a})
	return nil
}

func (p *shardPort) Close() error {
	p.once.Do(p.f.shardDone)
	return nil
}

// readPort is one attached read-coordinator's endpoint. It stamps the
// reader's nonce on every outbound walker and view request so shard-side
// logic stays origin-agnostic.
type readPort struct {
	f      *Fabric
	nonce  uint64
	events *fabric.Mailbox[fabric.Event]
	once   sync.Once
}

func (r *readPort) Shards() int { return r.f.shards }

func (r *readPort) LaunchWalker(dst int, w *fabric.Walker) error {
	msgWalkers.Inc()
	w.Origin = r.nonce
	r.f.walkers[dst].Push(w)
	return nil
}

func (r *readPort) RequestView(dst int, rq *fabric.ViewRequest) error {
	msgViews.Inc()
	rq.Origin = r.nonce
	r.f.views[dst].Push(&fabric.ViewMsg{Req: rq})
	return nil
}

func (r *readPort) NextEvent() (fabric.Event, bool) { return r.events.Pop() }

func (r *readPort) Close() error {
	r.once.Do(func() {
		r.f.readerMu.Lock()
		delete(r.f.readers, r.nonce)
		r.f.readerMu.Unlock()
		r.events.Close()
	})
	return nil
}
