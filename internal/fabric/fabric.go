// Package fabric defines the shard interconnect of the sharded serving
// runtime: the message vocabulary (walker hand-offs, routed update
// batches, sync barriers, retire/ack replies, plan broadcasts) and the
// port interfaces — one per shard node, one for the write-coordinator,
// one per attached read-coordinator — that every transport implements.
//
// The in-process ShardedLiveService and the multi-process shard-daemon
// mode run the *same* walk/ingest logic over different fabrics:
//
//   - fabric/inproc carries messages over channels and unbounded
//     mailboxes inside one address space (the original ShardedLiveService
//     plumbing, extracted);
//   - fabric/tcpgob carries them as length-prefixed binary frames over
//     TCP, one ordered stream per peer pair, which is what lets
//     `bingowalk -shard-serve` host a shard in its own process.
//
// Every message is plain serializable data. In particular a Walker carries
// its RNG *state*, not a generator pointer — the walk's random stream
// continues draw-for-draw across an address-space boundary, which is what
// makes the in-process and multi-process topologies sample identically.
//
// Ordering contract (what the differential-equivalence argument needs):
//
//   - The coordinator→shard publish stream is FIFO: PublishUpdates calls
//     for one shard are applied in call order, and a PublishBarrier is
//     observed by a shard only after every batch published to it before
//     the barrier. Per-source update order is therefore preserved end to
//     end (single router upstream, single ingester downstream).
//   - Walker hand-offs need no cross-walker ordering: a walker is owned
//     by exactly one crew at a time, so its own hops are trivially
//     sequential and hops of distinct walkers commute.
//   - Retires and acks may arrive at the coordinator in any order across
//     shards; each carries the identity needed to route it.
package fabric

import (
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// Walker is the serializable walk state handed between shards — the
// paper's "transferring walkers has the light burden of communication"
// (supplement §9.1) as a wire message. Exactly one crew owns a walker at
// a time; a hand-off transfers ownership whole.
type Walker struct {
	// ID routes the retire back to the coordinator's pending entry
	// (query reply or bulk-run tally).
	ID uint64
	// Cur is the walker's current vertex; Left the hops remaining.
	Cur  graph.VertexID
	Left int
	// Rng is the walk's serialized RNG stream; the receiving crew resumes
	// it exactly where the sender stopped.
	Rng xrand.State
	// Record makes crews append every visited vertex to Path (queries
	// always record; bulk walkers record when the run counts visits).
	// An explicit flag rather than Path != nil: an empty slice and a nil
	// one are the same bytes on the wire (a zero count) and both decode
	// as nil.
	Record bool
	// Path is the recorded visit sequence (for queries, Path[0] is the
	// start vertex).
	Path []graph.VertexID
	// Steps, Transfers, Local, and Remote accumulate the walk's own
	// telemetry: hops taken, cross-shard hand-offs, steps that stayed on
	// the owning shard, and steps served from a cached remote hub view
	// (a hop at a non-owned vertex that did *not* cost a hand-off).
	Steps, Transfers, Local, Remote int64
	// Failed marks a walk the fabric cut short (a hand-off toward a dead
	// peer): the retire must surface an error to the waiting caller, not
	// a truncated path posing as a complete walk.
	Failed bool
	// Reroutes counts how many times the coordinator re-launched this
	// walk after a Failed retire (failover re-routing to a replica). It
	// bounds the retry loop: a walk that keeps landing on dead links
	// eventually fails for real instead of ping-ponging forever.
	Reroutes int
	// Origin is the session nonce of the coordinator that launched this
	// walker: 0 for the write-coordinator (the session owner), the
	// reader's attach nonce for a walker launched by a read-coordinator.
	// Shards preserve it across hand-offs, and the transport routes the
	// retire back to the originating coordinator — the field that lets N
	// readers share one shard set without mixing up each other's walks.
	Origin uint64
}

const (
	// QueueDepth is the buffer depth of every serving queue: a live
	// service's query and feed queues, a coordinator's feed queue, and the
	// in-process fabric's per-shard ingest streams. A full feed queue
	// makes Feed block (backpressure).
	QueueDepth = 256
	// BootstrapChunk bounds one bootstrap (Boot) batch in updates, unless
	// a single row is longer and travels alone: large enough to amortize
	// framing, small enough that the credit window still paces the stream
	// and that a full float-bias batch (25 B per update on the TCP wire,
	// about 0.82 MB) fits the buffers a link keeps between frames.
	BootstrapChunk = 1 << 15
)

// Ingest is one element of a shard's ordered ingest stream: a routed
// sub-batch of updates, or (Ups nil, Barrier != 0) a sync barrier the
// shard acknowledges with an Ack carrying the same sequence number.
type Ingest struct {
	// Ups is the update sub-batch (every Src owned by the receiving
	// shard).
	Ups []graph.Update
	// Barrier is the barrier sequence number (0 = not a barrier).
	Barrier uint64
	// Dump asks the shard to attach its full edge snapshot to the
	// barrier's Ack — the coordinator's way to read back distributed
	// state for verification.
	Dump bool
	// Offer, when Offer.Epoch != 0, instructs the receiving shard — a
	// live holder of Offer.Block — to snapshot that block's rows and ship
	// them to Offer.To as a MigrateBlock, while it keeps serving them.
	// Its position in the ingest stream is the copy's linearization point
	// on the donor: every update routed to the donor before the offer is
	// in the shipped rows, every later one also reaches the recipient
	// directly.
	Offer MigrateOffer
	// Commit, when Commit.Epoch != 0, tells the recipient named by
	// Commit.To to install the in-flight MigrateBlock before continuing
	// its ingest stream.
	Commit MigrateCommit
	// Boot marks a bootstrap element: Ups carries whole rows read from
	// the source engine at session start (or replica priming) rather than
	// live feed events. A shard applies them like any insert batch but does not
	// count them in its Updates/consumed ingest tallies — bootstrap rows
	// are initial state, not stream history, and watermark arithmetic
	// (view invalidation, copy FIFO checks) must see the same
	// stream positions whether a session bootstrapped from a snapshot or
	// replayed updates.
	Boot bool
	// Down, when Down.Epoch != 0, is a liveness control: the coordinator
	// observed shard Down.Shard die (Up false) or finish rejoining (Up
	// true) and every surviving shard flips its plan's dead-mask at
	// Down.Epoch. Its position in the ingest stream linearizes the
	// failover against routed updates.
	Down ShardDown
	// Plan, when non-nil, carries a full ownership-plan sync: a rejoined
	// daemon starts from a fresh engine and needs the coordinator's
	// current epoch and dead-mask before any copy-commit or update
	// reaches it.
	Plan *PlanState
	// Watermarks is the coordinator's per-shard routed-update ledger
	// (cumulative update events published to each shard, this element
	// included), piggybacked on every ingest element. A cached remote
	// view from shard o stamped with Applied < Watermarks[o] may predate
	// an update already in flight to o and must be dropped — the
	// epoch-invalidation signal of the fabric-side hub cache. Routed
	// counts can only run ahead of applied counts, so the rule is
	// conservative: a view is only ever dropped early, never kept late
	// relative to what the ledger knows.
	Watermarks []int64
}

// IsBarrier reports whether the element is a barrier token.
func (in *Ingest) IsBarrier() bool { return in.Barrier != 0 }

// ShardDown is a liveness flip announced on the ingest streams: shard
// Shard is dead (Up false) or alive again (Up true) as of plan epoch
// Epoch. Zero Epoch means "no flip" (the Ingest discriminator).
type ShardDown struct {
	Shard int
	Epoch uint64
	Up    bool
}

// PlanState is a full ownership-plan synchronization, sent to a rejoined
// shard before any other traffic so it agrees with the fleet on epoch
// and liveness.
type PlanState struct {
	Epoch    uint64
	DeadMask uint64
}

// Credit is a shard's flow-control report to the coordinator: Credited
// is the shard's cumulative count of routed update events (and bootstrap
// rows) it has consumed from its ingest stream. The coordinator's credit
// window blocks Feed once routed-minus-credited exceeds the window, which
// bounds every daemon's ingest queue end to end. Cumulative rather than
// incremental so that lost or reordered credits only delay the window,
// never corrupt it (the coordinator takes a monotonic max).
type Credit struct {
	Shard    int
	Credited int64
}

// ---------------------------------------------------------------------------
// Replica priming (the block-copy protocol)
//
// A rejoined replica is primed by copying each block it should hold from
// that block's live owner, in four fabric messages ordered by the
// per-shard FIFO ingest streams:
//
//	coordinator ──Offer──▶ donor           (donor's ingest stream)
//	coordinator ──Commit─▶ recipient       (recipient's ingest stream)
//	donor ──────MigrateBlock──▶ recipient  (block stream, peer-to-peer)
//	recipient ──MigrateDone──▶ coordinator (event stream)
//
// The router starts fanning the block's routed updates out to the
// recipient the instant it publishes the offer, so they enqueue behind
// the recipient's commit and apply onto the installed snapshot. Nobody
// flips ownership: the donor keeps serving the block, and the rejoiner
// stays masked dead until its last copy lands.

// MigrateOffer instructs a donor shard to snapshot one block and ship it.
// Zero Epoch means "no offer" (the Ingest discriminator); copy epochs
// start at 1.
type MigrateOffer struct {
	// Block is the ShardPlan block index being copied.
	Block uint64
	// To is the recipient shard.
	To int
	// Epoch numbers the copy within the session; the shipped block and
	// the recipient's commit carry the same value.
	Epoch uint64
}

// MigrateCommit tells the recipient to install one copied block. Zero
// Epoch means "no commit".
type MigrateCommit struct {
	Block    uint64
	From, To int
	// Epoch is the copy's number (see MigrateOffer.Epoch).
	Epoch uint64
	// MinWatermark is the coordinator's routed-update count for the donor
	// at the instant the offer was published. The shipped block must
	// carry a donor watermark at least this high — a cheap end-to-end
	// check that the ingest stream's FIFO ordering actually held.
	MinWatermark int64
}

// MigrateBlock carries one block's snapshotted rows from donor to
// recipient: insert updates that reconstruct exactly the rows the donor
// held at the offer, in per-source adjacency order.
type MigrateBlock struct {
	Block uint64
	From  int
	Epoch uint64
	// Watermark is the donor's ingest-stream position (update events
	// consumed) at the snapshot; see MigrateCommit.MinWatermark.
	Watermark int64
	// Rows reconstruct the block's rows when applied to an empty range.
	Rows []graph.Update
}

// MigrateDone is the recipient's completion report, delivered to the
// coordinator on the event stream.
type MigrateDone struct {
	// Shard is the reporting (recipient) shard.
	Shard int
	Block uint64
	Epoch uint64
	// Edges is how many edges the installed block carried.
	Edges int64
	// Err is a non-empty description when the install failed; the
	// coordinator abandons the rejoin and keeps the shard masked dead.
	Err string
}

// Ack is a shard's acknowledgement of a barrier. Updates/Dropped are the
// shard's *cumulative* ingest tallies at the barrier point, so the latest
// ack per shard is a consistent snapshot of distributed ingest progress.
type Ack struct {
	Shard   int
	Seq     uint64
	Updates int64  // cumulative successfully applied update events
	Dropped int64  // cumulative dropped sub-batches
	Err     string // first ingest error observed ("" if none)
	// Vertices is the shard engine's current vertex-space size
	// (telemetry; shards grow independently under the feed).
	Vertices int
	// Steps is the node's cumulative sampled-hop count at the barrier
	// point — the per-shard load share a remote coordinator reads
	// without touching the node.
	Steps int64
	// Edges is the shard's edge snapshot, attached only when the barrier
	// carried Dump.
	Edges []graph.Edge
	// Cache is the node's cumulative hub-cache tallies at the barrier
	// point — how remote coordinators observe cache effectiveness
	// (in-process services read the node counters directly).
	Cache CacheTallies
	// Obs is the node-side metrics sample at the barrier point: the
	// shard's observability registry flattened for the wire, so the
	// coordinator's /metrics can re-expose every shard's tallies with a
	// shard label — the fleet-wide aggregation path.
	Obs obs.Sample
}

// CacheTallies are a shard node's cumulative hub-cache counters.
type CacheTallies struct {
	// LocalHits counts hops served lock-free from a crew's own view
	// cache; LocalStale counts cached views dropped on epoch mismatch.
	LocalHits, LocalStale int64
	// RemoteHits counts hops at non-owned vertices served from a peer's
	// shipped view instead of a walker hand-off; RemoteStale counts
	// remote views dropped by watermark invalidation.
	RemoteHits, RemoteStale int64
	// ViewRequests counts view fetches this node issued; ViewsServed
	// counts requests it answered for peers.
	ViewRequests, ViewsServed int64
}

// Add accumulates o into t.
func (t *CacheTallies) Add(o CacheTallies) {
	t.LocalHits += o.LocalHits
	t.LocalStale += o.LocalStale
	t.RemoteHits += o.RemoteHits
	t.RemoteStale += o.RemoteStale
	t.ViewRequests += o.ViewRequests
	t.ViewsServed += o.ViewsServed
}

// CorpusTallies are a standing-walk-corpus service's cumulative
// maintenance counters — the observability contract of the suffix
// resampler. Resamples counts dirty walks whose suffixes were regrown;
// ResampledSteps the hops those regrows actually sampled; FullWalkSteps
// the hops a per-update full recompute of every affected walk would have
// sampled instead (the counterfactual the amplification ratio
// ResampledSteps/FullWalkSteps is measured against). The bounded-staleness
// inputs ride barrier acks: the coordinator sums each shard's cumulative
// Ack.Updates stamp, and a refresh cycle only advances the corpus
// watermark once those stamps confirm its fed events applied.
type CorpusTallies struct {
	// Resamples counts walks truncated and regrown; ResampledSteps the
	// suffix hops sampled doing it.
	Resamples, ResampledSteps int64
	// FullWalkSteps is the full-recompute counterfactual: per applied
	// update event, every walk that visited the touched vertex re-walked
	// at full length.
	FullWalkSteps int64
	// RefreshLagMs is the maximum observed touch-to-refresh latency: the
	// age of the oldest coalesced touch when the refresh incorporating it
	// completed.
	RefreshLagMs int64
	// StaleServed counts queries served from a corpus lagging the feed
	// but inside the staleness bound; Fallbacks queries that blew the
	// bound (or missed the corpus) and were served as fresh walks.
	StaleServed, Fallbacks int64
}

// Add accumulates o into t (RefreshLagMs takes the max — it is a
// high-water mark, not a sum).
func (t *CorpusTallies) Add(o CorpusTallies) {
	t.Resamples += o.Resamples
	t.ResampledSteps += o.ResampledSteps
	t.FullWalkSteps += o.FullWalkSteps
	if o.RefreshLagMs > t.RefreshLagMs {
		t.RefreshLagMs = o.RefreshLagMs
	}
	t.StaleServed += o.StaleServed
	t.Fallbacks += o.Fallbacks
}

// ViewRequest asks a vertex's owner shard for a snapshot of its sampling
// state — the fabric-side hub-cache fill path. From names the requester
// so the reply can be routed back. Origin is 0 for a shard peer; a
// read-coordinator's request carries its attach nonce instead, and the
// owner copies it into the reply so the transport can route it back to
// the reader's link rather than a peer stream.
type ViewRequest struct {
	From   int
	Vertex graph.VertexID
	Origin uint64
}

// ViewReply answers a ViewRequest. Hub reports whether the owner deemed
// the vertex cacheable (at or above its hub-degree threshold); the view
// is attached only then. Applied stamps the owner's cumulative
// applied-update count at extraction — the version the requester checks
// against the coordinator's routed-update watermarks.
type ViewReply struct {
	From    int // owner shard
	Vertex  graph.VertexID
	Hub     bool
	Applied int64
	View    core.VertexView
	// Origin echoes the request's Origin: 0 routes the reply to a peer
	// shard's view stream, a reader nonce routes it to that reader.
	Origin uint64
}

// ViewMsg is one element of a shard's view stream: exactly one of Req
// (a peer wants this shard's view of a vertex it owns) or Rep (a peer
// answered this shard's request) is set.
type ViewMsg struct {
	Req *ViewRequest
	Rep *ViewReply
}

// Broadcast is the write-coordinator's periodic state announcement to
// every attached read-coordinator: the full routing-relevant snapshot —
// plan epoch, liveness mask, partition geometry — plus
// the routed-update watermark vector and the applied stamp backing the
// readers' bounded-staleness contract.
//
// Broadcasts are full-state and idempotent: a receiver applies one iff
// Seq is at least the last sequence it saw, so duplicated delivery (a
// reader attached to N daemons receives each broadcast N times) and
// reordering across daemon links are both harmless. The consistency
// argument for readers is the same conservative direction the shard-side
// hub caches rely on: Watermarks are *routed* counts, which only ever run
// ahead of the owners' *applied* counts, so a reader pruning its cached
// views against them drops views early, never keeps them late.
type Broadcast struct {
	// Seq orders broadcasts within the write session (monotonic from 1).
	Seq uint64
	// Epoch and DeadMask mirror the write-coordinator's live ShardPlan:
	// readers rebuild their routing from them on every flip.
	Epoch    uint64
	DeadMask uint64
	// RangeSize, Replicas, and Vertices complete the partition geometry
	// (Vertices is the coordinator's current high-water vertex count —
	// the space grows live under the feed).
	RangeSize int
	Replicas  int
	Vertices  int
	// Watermarks is the routed-update ledger (cumulative events published
	// per shard); readers fold it into their remote-view caches exactly
	// like shard nodes fold the piggybacked ingest vector.
	Watermarks []int64
	// Applied is the write-coordinator's AppliedStamp() — the summed
	// cumulative applied-update acks — at broadcast time. Readers surface
	// it as their own staleness stamp.
	Applied int64
}

// EventKind discriminates coordinator-bound events.
type EventKind uint8

const (
	// EvRetire delivers a finished walker.
	EvRetire EventKind = iota
	// EvAck delivers a barrier acknowledgement.
	EvAck
	// EvMigrated delivers a block-copy completion report.
	EvMigrated
	// EvCredit delivers a shard's flow-control report.
	EvCredit
	// EvShardDown reports that the fabric lost the link to Event.Shard
	// (transport-detected death). Only transports that can observe a
	// single link die without losing the session emit it; the
	// coordinator reacts by promoting replicas and re-routing walkers.
	EvShardDown
	// EvShardUp reports that the link to Event.Shard came back (a
	// restarted daemon re-accepted the session). The coordinator reacts
	// by re-priming the shard's replica blocks.
	EvShardUp
	// EvBroadcast delivers a write-coordinator state broadcast to a
	// read-coordinator's event stream.
	EvBroadcast
	// EvView delivers a hub-view reply to a read-coordinator's event
	// stream (shard peers receive replies on their view streams instead).
	EvView
)

// Event is one element of the coordinator's inbound stream.
type Event struct {
	Kind   EventKind
	Walker *Walker      // EvRetire
	Ack    *Ack         // EvAck
	Done   *MigrateDone // EvMigrated
	Credit *Credit      // EvCredit
	Shard  int          // EvShardDown / EvShardUp
	Bcast  *Broadcast   // EvBroadcast
	Rep    *ViewReply   // EvView
}

// ShardPort is one shard node's endpoint on the fabric.
//
// NextWalker and NextIngest block; they return ok=false — after draining
// everything already delivered — once the coordinator has closed the
// session. ForwardWalker/Retire/Ack must not be called after the node's
// loops have exited. Close releases the port and signals the coordinator
// that this shard has finished producing events; the node calls it after
// both its loops have exited.
type ShardPort interface {
	// Shard returns this node's shard index.
	Shard() int
	// NextWalker pops the next inbound walker (coordinator launches and
	// peer transfers share one stream; ordering between walkers is
	// irrelevant — see the package comment).
	NextWalker() (*Walker, bool)
	// NextWalkers pops up to max inbound walkers in one queue round:
	// it blocks until at least one walker is available, appends the
	// drained walkers to dst, and returns it. The batch ingress feeds
	// the frontier stepping kernel — a crew that drains co-located
	// walkers together can amortize one lock/epoch validation over all
	// of them. Same end-of-stream semantics as NextWalker.
	NextWalkers(dst []*Walker, max int) ([]*Walker, bool)
	// NextIngest pops the next element of the ordered ingest stream.
	NextIngest() (*Ingest, bool)
	// ForwardWalker hands a walker to shard dst's crew. It must not
	// block indefinitely on a slow peer (unbounded delivery is what
	// keeps circular forwarding deadlock-free). A transport may defer
	// delivery (e.g. to coalesce hand-offs into batched frames); a
	// walker it accepts but cannot deliver must be retired as Failed so
	// the coordinator never waits on a silently lost walk.
	ForwardWalker(dst int, w *Walker) error
	// Retire sends a finished walker back to the coordinator.
	Retire(w *Walker) error
	// Ack sends a barrier acknowledgement to the coordinator.
	Ack(a *Ack) error
	// RequestView asks peer shard dst for a view of a vertex dst owns.
	// Delivery is asynchronous: the reply arrives on the requester's
	// view stream. Like ForwardWalker it must not block indefinitely.
	RequestView(dst int, rq *ViewRequest) error
	// ReplyView answers a peer's view request.
	ReplyView(dst int, rp *ViewReply) error
	// NextView pops the next element of this shard's view stream
	// (inbound requests and replies share it). It blocks, and returns
	// ok=false once the session has ended and the stream drained.
	NextView() (*ViewMsg, bool)
	// SendBlock ships a snapshotted block to peer shard dst (the donor
	// half of a copy). Like ForwardWalker it must not block
	// indefinitely.
	SendBlock(dst int, mb *MigrateBlock) error
	// NextBlock pops the next inbound copied block. It blocks, and
	// returns ok=false once the session has ended and the stream
	// drained.
	NextBlock() (*MigrateBlock, bool)
	// Migrated reports a completed (or failed) block install to the
	// coordinator.
	Migrated(d *MigrateDone) error
	// Credit reports ingest-stream consumption to the coordinator (the
	// backpressure return path). Like Retire it must not block the
	// node's ingest loop; a transport may drop credits on a dying link —
	// they are cumulative, so the next one repairs the window.
	Credit(c *Credit) error
	// Close signals that this shard is done producing events.
	Close() error
}

// CoordPort is the coordinator's endpoint on the fabric.
//
// LaunchWalker/PublishUpdates/PublishBarrier must not be called after
// Close. NextEvent blocks; it returns ok=false once every shard has
// closed its port after a Close. Close initiates session shutdown: each
// shard's NextWalker/NextIngest streams end once already-delivered items
// drain.
type CoordPort interface {
	// Shards returns the session's shard count.
	Shards() int
	// LaunchWalker starts a walker on shard dst.
	LaunchWalker(dst int, w *Walker) error
	// PublishUpdates appends a routed ingest element (a sub-batch plus
	// the coordinator's watermark vector) to shard dst's ingest stream
	// (FIFO per shard; may block for backpressure).
	PublishUpdates(dst int, in Ingest) error
	// PublishBarrier appends a barrier token to every shard's ingest
	// stream, ordered after all previously published batches.
	PublishBarrier(in Ingest) error
	// PublishBroadcast announces the write-coordinator's current plan and
	// watermark state to every attached read-coordinator. Delivery is
	// best-effort fan-out (a reader that misses one catches up on the
	// next — broadcasts are full-state); a transport with no readers
	// attached may cache it for late attachers and otherwise do nothing.
	PublishBroadcast(b Broadcast) error
	// NextEvent pops the next coordinator-bound event.
	NextEvent() (Event, bool)
	// Close ends the session.
	Close() error
}

// ReadPort is a read-coordinator's endpoint on the fabric: the slice of
// CoordPort a query-serving frontend needs — walker launches, hub-view
// fetches, and an event stream carrying its own retires, view replies,
// and the write-coordinator's broadcasts — with none of the ingest
// surface. The transport stamps every outbound walker and view request
// with the reader's attach nonce (Walker.Origin / ViewRequest.Origin), so
// the walk layer above stays nonce-free.
//
// A ReadPort is valid only while a write session is active on the same
// shard set: readers never mediate ingest, so a shard set with no
// write-coordinator has no plan authority and the transport ends the
// reader's event stream (NextEvent returns ok=false), failing pending
// queries rather than serving from a fabric with no owner.
type ReadPort interface {
	// Shards returns the session's shard count.
	Shards() int
	// LaunchWalker starts a walker on shard dst; its retire comes back on
	// this reader's event stream.
	LaunchWalker(dst int, w *Walker) error
	// RequestView asks shard dst for a hub view of a vertex it owns; the
	// reply arrives as an EvView event.
	RequestView(dst int, rq *ViewRequest) error
	// NextEvent pops the next reader-bound event (EvRetire, EvView,
	// EvBroadcast). It blocks, and returns ok=false once the reader has
	// detached or the underlying write session ended.
	NextEvent() (Event, bool)
	// Close detaches the reader. The shard set and the write session are
	// unaffected; in-flight walkers this reader launched are dropped at
	// retire time.
	Close() error
}

// Session roles carried in Hello.Role. The zero value is the write role,
// so a Hello that never mentions roles opens a write session.
const (
	// RoleWrite is the session owner: exactly one per shard set, owning
	// the ingest router, credit windows, plan epoch, and replica
	// priming.
	RoleWrite = ""
	// RoleRead attaches a read-coordinator to an already-running write
	// session: it launches walkers and fetches hub views but never
	// mediates ingest, and any number may attach concurrently.
	RoleRead = "read"
)

// Hello is the session spec a coordinator sends a shard daemon on
// connect: enough to reconstruct the partition geometry and build an
// empty, compatible engine. It lives here (not in internal/walk) because
// transports carry it and walk already imports fabric.
//
// Role splits sessions into one write-coordinator plus any number of
// concurrently attached read-coordinators; a reader's Hello is only a
// (Role, Session, Shard) announcement — the geometry fields are ignored,
// since the reader learns the live plan from the write session's
// broadcasts rather than asserting one of its own.
type Hello struct {
	// Role is the session role: RoleWrite ("" — the zero value) or
	// RoleRead.
	Role string
	// Shards and Shard are the partition count and the receiver's index
	// (the daemon sanity-checks them against its -shard K/N flags).
	Shards, Shard int
	// RangeSize is the ShardPlan block length (ownership geometry).
	RangeSize int
	// NumVertices sizes the shard engine's initial vertex space; the
	// feed grows it live like any other engine.
	NumVertices int
	// Sampler is the shard engines' sampler configuration: the
	// coordinator engine's effective core.Config, its calibrated λ
	// included, so every shard factorizes biases exactly as that engine
	// does (Workers = 0 lets each daemon size batch parallelism to its
	// own cores).
	Sampler core.Config
	// Peers are the daemon addresses indexed by shard, for direct
	// shard-to-shard walker transfer.
	Peers []string
	// Session is the coordinator's nonce for this serving session. Peer
	// transfer streams announce it on open, so a multi-session daemon
	// can refuse strays from an earlier, torn-down session.
	Session uint64
	// Cache configures the daemons' hub caches (zero value = defaults,
	// cache on).
	Cache CacheSpec
	// Replicas is the block replication factor (0 or 1 = no replication):
	// each ownership block is held by Replicas consecutive shards and
	// survives Replicas-1 deaths. A session starts with every shard live;
	// a daemon that rejoins mid-failover learns the fleet's liveness from
	// the PlanState heading its ingest stream.
	Replicas int
}

// CacheSpec configures the two hub-cache layers of a shard node. The
// zero value means "enabled with defaults"; the walk layer resolves the
// concrete defaults and fixes the cache sizes.
type CacheSpec struct {
	// Off disables both cache layers.
	Off bool
	// MinDegree is the hub admission threshold: only vertices of at
	// least this degree are cached or served as views (0 = default 8).
	MinDegree int
}
