// Package tcpgob is the wire shard fabric: fabric messages travel as
// length-prefixed binary frames over TCP, one ordered full-duplex stream
// per peer pair. (The import path predates the codec: frames were gob
// encoded until the hand-rolled format in wire.go replaced it; gob now
// lives only in this package's tests, as the codec's reference.)
//
// Topology. Each shard daemon owns one Listener. A write-coordinator
// dials it and opens a *session* by sending a Hello (partition geometry,
// engine spec, peer addresses, a session nonce); all coordinator→shard
// traffic (walker launches, routed update batches, barriers, plan
// broadcasts, shutdown) and all shard→coordinator traffic (retires,
// acks) flows on that connection. Shard-to-shard traffic — walker
// transfers and hub-view requests/replies — uses direct peer
// connections, dialed lazily on the first message toward each peer.
// *Write* sessions are sequential: a Listener serves one
// write-coordinator at a time but accepts a fresh session after the
// previous one tears down, which is what lets a daemon outlive its
// coordinators. Any number of *read* sessions (Hello.Role == RoleRead)
// may attach concurrently to the active write session: each reader link
// carries walker launches and view requests inbound, and the daemon
// routes that reader's retires, view replies, and relayed plan
// broadcasts back on the same link, fenced by the reader's own session
// nonce. Reader links live and die with the write session they attached
// to — a daemon with no write-coordinator has no plan authority to serve
// from. Peer streams announce the write session nonce on open, so a
// stray connection from a torn-down session is refused instead of
// leaking its walkers into the next session.
//
// Ordering. TCP gives each connection a FIFO byte stream and every
// connection has a single writer goroutine or locked writer, so the
// fabric ordering contract (per-shard publish order, barrier-after-
// batches) holds by construction. Each daemon demultiplexes inbound
// frames into unbounded mailboxes (walkers vs ingest vs views), so a
// crew blocked on an empty walker queue never stalls update delivery on
// the shared connection.
//
// Batching. Walker hand-offs toward one peer are coalesced: ForwardWalker
// enqueues, and a per-peer sender drains whatever is queued into a single
// kWalkerBatch frame. Under load this amortizes the per-frame cost (header,
// writer lock, one write syscall) across every walker queued behind the
// wire; an idle sender ships a lone walker immediately, so the latency
// cost of batching is zero. A walker the sender cannot deliver (dead peer)
// is retired to the coordinator as Failed — never silently dropped.
//
// Framing. Every frame is
//
//	u32 length | u8 kind | payload
//
// where length counts the kind byte and the payload, and every integer —
// the length included — is fixed-width little-endian. Each kind's payload
// has one fixed layout (wire.go; tabulated in DESIGN.md): scalars in
// struct order, slices and strings as a u32 count plus elements, update
// batches and hub views as bulk columns, optional sections behind one
// presence-flags byte. Three rules hold for every kind:
//
//   - Self-contained. A frame is decodable from its own bytes: no codec
//     state crosses frames, and a decoder that does not consume exactly
//     length bytes fails, so a torn or desynchronized stream dies loudly
//     at the next frame instead of misreading what follows.
//   - Bounded. A count is checked against the bytes left in its frame
//     before anything is allocated; a link's read buffer grows only as
//     body bytes arrive; and until a connection's hello is accepted its
//     frames are capped at 1 MiB. Refused and torn frames are counted in
//     bingo_fabric_decode_errors_total.
//   - Versioned. There is no field-level self-description, so both hello
//     kinds open with a wireVersion byte and a daemon hangs up on any
//     other value; every layout change bumps it. Daemons and coordinators
//     of one session must come from the same build.
//
// A sender encodes straight from the caller's value into a per-link buffer
// under the writer lock and hands the kernel the whole frame in one write;
// a reader decodes from a per-link buffer into exactly the value its
// mailbox receives (a walker hop allocates the Walker and its Path,
// nothing else). Buffers over 1 MiB — bootstrap batches, edge dumps — are
// released after their frame.
package tcpgob

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/obs"
)

const (
	// defaultDialAttempts / defaultDialTimeout govern every outbound
	// connect (coordinator→daemon and lazy peer dials): each attempt is
	// bounded, and a refused connect is retried with jittered exponential
	// backoff. A daemon that is merely still starting (or restarting
	// after a crash) costs a short wait instead of a dead session or a
	// hand-off hanging on an unbounded blackhole connect.
	defaultDialAttempts = 5
	defaultDialTimeout  = 2 * time.Second
	// peerRedialAfter rate-limits replacing a dead peer stream with a
	// fresh dial: within the window hand-offs fail fast (and are retired
	// Failed for the coordinator to re-route); after it the next forward
	// tries a new connection — how peer links heal once a crashed
	// daemon returns.
	peerRedialAfter = 250 * time.Millisecond
	// blockRedeliverAttempts bounds re-sending a copied block whose peer
	// stream died before flushing it. Walkers stranded the same way are
	// retired Failed and re-routed, but a dropped block would wedge its
	// rejoin for good: SendBlock already returned success to the
	// donor, and the coordinator is waiting on exactly one MigrateDone
	// per block. Blocks are keyed by copy epoch and installs wipe the
	// range first, so re-sending through a replacement stream is always
	// safe.
	blockRedeliverAttempts = 40
)

// dialRetry connects to addr with per-attempt timeouts and jittered
// exponential backoff between attempts (50ms doubling to a 1s cap, each
// wait uniformly stretched up to 2x). stop aborts the wait early.
func dialRetry(addr string, attempts int, timeout time.Duration, stop <-chan struct{}) (net.Conn, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	backoff := 50 * time.Millisecond
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d := backoff + time.Duration(rand.Int63n(int64(backoff)))
			if backoff < time.Second {
				backoff *= 2
			}
			select {
			case <-time.After(d):
			case <-stop:
				return nil, fmt.Errorf("tcpgob: dial %s aborted: %w", addr, lastErr)
			}
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// frame kinds.
const (
	kHelloCoord  = uint8(iota + 1) // coordinator session open (Hello)
	kHelloPeer                     // peer stream open (From + Session)
	kWalker                        // single walker launch or transfer
	kWalkerBatch                   // coalesced walker transfers
	kUpdates                       // routed ingest element (batch + watermarks)
	kBarrier                       // barrier token (Ingest)
	kRetire                        // finished walker, shard → coordinator
	kAck                           // barrier ack, shard → coordinator
	kViewReq                       // hub-view request, shard → peer
	kViewRep                       // hub-view reply, shard → peer
	kShutdown                      // session end, coordinator → shard
	kMigBlock                      // snapshotted block, donor shard → recipient peer
	kMigDone                       // block-copy completion, recipient shard → coordinator
	kCredit                        // ingest flow-control report, shard → coordinator
	kBroadcast                     // plan/watermark broadcast, write-coordinator → shard → readers
)

// kindNames label the frame kinds for the wire metrics; index matches the
// kind constants above.
var kindNames = [...]string{
	kHelloCoord: "hello_coord", kHelloPeer: "hello_peer",
	kWalker: "walker", kWalkerBatch: "walker_batch",
	kUpdates: "updates", kBarrier: "barrier",
	kRetire: "retire", kAck: "ack",
	kViewReq: "view_req", kViewRep: "view_rep",
	kShutdown: "shutdown", kMigBlock: "mig_block", kMigDone: "mig_done",
	kCredit: "credit", kBroadcast: "broadcast",
}

// Per-kind frame/byte counters for both directions, resolved once at
// init so the per-frame cost is two atomic adds each way. Byte counts
// include the 4-byte length header — what actually crossed the wire.
var (
	txFrames, txBytes, rxFrames, rxBytes [len(kindNames)]*obs.Counter
)

func init() {
	for k := 1; k < len(kindNames); k++ {
		txFrames[k] = obs.C("bingo_fabric_frames_total", "fabric", "tcp", "dir", "tx", "kind", kindNames[k])
		txBytes[k] = obs.C("bingo_fabric_bytes_total", "fabric", "tcp", "dir", "tx", "kind", kindNames[k])
		rxFrames[k] = obs.C("bingo_fabric_frames_total", "fabric", "tcp", "dir", "rx", "kind", kindNames[k])
		rxBytes[k] = obs.C("bingo_fabric_bytes_total", "fabric", "tcp", "dir", "rx", "kind", kindNames[k])
	}
}

// ---------------------------------------------------------------------------
// Shard daemon side

// Listener is a shard daemon's accept loop: it owns the listen socket
// and hands out one session ShardConn per *write*-coordinator Hello,
// serially; read-coordinator Hellos attach concurrently to the active
// write session instead of claiming the slot. It outlives sessions —
// after a write session's teardown the next coordinator Hello starts a
// fresh one.
type Listener struct {
	ln            net.Listener
	shard, shards int

	mu       sync.Mutex
	cur      *ShardConn    // active session, nil when idle
	watch    chan struct{} // closed and re-made whenever cur changes
	sessions chan *ShardConn
	done     chan struct{} // closed when the accept loop exits
	closed   bool
}

// Listen binds addr. shard/shards are this daemon's claimed position,
// validated against each coordinator's Hello (pass shards <= 0 to accept
// any count). Call Accept to block for the next session.
func Listen(addr string, shard, shards int) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		ln:       ln,
		shard:    shard,
		shards:   shards,
		watch:    make(chan struct{}),
		sessions: make(chan *ShardConn),
		done:     make(chan struct{}),
	}
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound listen address (useful with ":0").
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Accept blocks until a coordinator opens a session and returns the
// session port plus its Hello. One session is active at a time: a
// coordinator dialing while another session is still open is refused.
func (l *Listener) Accept() (*ShardConn, fabric.Hello, error) {
	select {
	case sc := <-l.sessions:
		return sc, sc.hello, nil
	case <-l.done:
		return nil, fabric.Hello{}, fmt.Errorf("tcpgob: listener closed")
	}
}

// Close shuts the listener down: the accept loop exits and Accept fails.
// An active session is closed too.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	cur := l.cur
	l.mu.Unlock()
	l.ln.Close()
	if cur != nil {
		cur.Close()
	}
	return nil
}

// acceptLoop serves connections until the listener is closed. Only a
// closed listen socket ends it: a transient Accept error (a stray
// half-open connection, fd pressure) is retried with backoff, so a
// long-lived daemon survives malformed dials between sessions instead of
// silently dying with them.
func (l *Listener) acceptLoop() {
	backoff := 5 * time.Millisecond
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				close(l.done)
				return
			}
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 5 * time.Millisecond
		go l.handleConn(newLink(conn))
	}
}

// curChangedLocked wakes waitSession watchers; callers hold l.mu.
func (l *Listener) curChangedLocked() {
	close(l.watch)
	l.watch = make(chan struct{})
}

// sessionDone clears the active-session slot once sc has torn down,
// re-arming the listener for the next coordinator.
func (l *Listener) sessionDone(sc *ShardConn) {
	l.mu.Lock()
	if l.cur == sc {
		l.cur = nil
		l.curChangedLocked()
	}
	l.mu.Unlock()
}

// handleConn demultiplexes one inbound connection: the first frame names
// the dialer (coordinator session or peer stream), the rest is that
// stream's traffic.
func (l *Listener) handleConn(lk *link) {
	lk.rxLimit = maxHelloFrame
	first, err := lk.read()
	if err != nil {
		lk.conn.Close()
		return
	}
	lk.rxLimit = maxFrame
	switch first.kind {
	case kHelloCoord:
		h := *first.hello
		if h.Shard != l.shard || (l.shards > 0 && h.Shards != l.shards) {
			// A session for a different position than this daemon was
			// started for: refuse loudly rather than corrupt ownership.
			lk.conn.Close()
			return
		}
		if h.Role == fabric.RoleRead {
			// A read-coordinator attaching: it joins the active write
			// session (waiting briefly for one — a reader may dial while
			// the write session is still handshaking) instead of claiming
			// the session slot. Its link carries walker launches and view
			// requests inbound; retires, view replies, and relayed plan
			// broadcasts flow back on it, keyed by the reader's nonce.
			sc := l.waitAnySession(10 * time.Second)
			if sc == nil {
				lk.conn.Close()
				return
			}
			sc.serveReader(lk, h.Session)
			return
		}
		l.mu.Lock()
		if l.closed || l.cur != nil {
			// Sequential-write-session semantics: at most one
			// write-coordinator at a time. A dial during an active session
			// (or its teardown) is refused; the spurned coordinator
			// observes its event stream ending.
			l.mu.Unlock()
			lk.conn.Close()
			return
		}
		sc := newShardConn(l, lk, h)
		l.cur = sc
		l.curChangedLocked()
		l.mu.Unlock()
		select {
		case l.sessions <- sc:
		case <-l.done:
			// Listener shut down before anyone accepted the session.
			sc.Close()
			return
		}
		sc.readCoord(lk)
	case kHelloPeer:
		// The dialer learned this daemon's address and the session nonce
		// from the coordinator's Hello, so a matching session is being
		// (or has been) established here too — but this peer stream may
		// race ahead of the coordinator connection's own handler. Wait
		// for the session rather than refusing and silently dropping the
		// walker frames already in flight behind the hello; only a
		// stream from a torn-down session (nonce never to return) falls
		// through to the timeout.
		sc := l.waitSession(first.session, 10*time.Second)
		if sc == nil {
			lk.conn.Close()
			return
		}
		sc.readPeer(lk)
	default:
		lk.conn.Close()
	}
}

// waitSession blocks until the active session carries the wanted nonce,
// the listener closes, or the timeout lapses. It waits on the listener's
// session-change watch channel — no polling: the waiter wakes exactly
// when cur changes.
func (l *Listener) waitSession(session uint64, timeout time.Duration) *ShardConn {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		l.mu.Lock()
		sc := l.cur
		w := l.watch
		closed := l.closed
		l.mu.Unlock()
		if sc != nil && sc.hello.Session == session {
			return sc
		}
		if closed {
			return nil
		}
		select {
		case <-w:
		case <-timer.C:
			return nil
		case <-l.done:
			return nil
		}
	}
}

// waitAnySession is waitSession without the nonce requirement: it blocks
// for whatever write session is (or becomes) active — the attach point
// for read-coordinators, which do not know the write session's nonce.
func (l *Listener) waitAnySession(timeout time.Duration) *ShardConn {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		l.mu.Lock()
		sc := l.cur
		w := l.watch
		closed := l.closed
		l.mu.Unlock()
		if sc != nil {
			return sc
		}
		if closed {
			return nil
		}
		select {
		case <-w:
		case <-timer.C:
			return nil
		case <-l.done:
			return nil
		}
	}
}

// ShardConn is a shard daemon's end of one serving session. It
// implements fabric.ShardPort. Sessions are created by Listener.Accept;
// Close tears this session down and re-arms the listener.
type ShardConn struct {
	owner *Listener
	hello fabric.Hello
	shard int

	walkers *fabric.Mailbox[*fabric.Walker]
	ingests *fabric.Mailbox[*fabric.Ingest]
	views   *fabric.Mailbox[*fabric.ViewMsg]
	blocks  *fabric.Mailbox[*fabric.MigrateBlock]

	// transferFrames/transferWalkers measure hand-off coalescing: how
	// many wire frames carried how many outbound walkers.
	transferFrames, transferWalkers atomic.Int64

	coord *link

	peerMu      sync.Mutex
	peers       map[int]*peerOut
	peersClosed bool

	// Attached read-coordinator links, keyed by reader session nonce,
	// plus the newest plan broadcast (seeded from the write Hello so a
	// reader attaching before the first broadcast still gets a usable
	// geometry snapshot).
	readerMu      sync.Mutex
	readerLinks   map[uint64]*link
	readersClosed bool
	lastBcast     fabric.Broadcast

	downOnce  sync.Once
	closeOnce sync.Once
}

func newShardConn(l *Listener, coord *link, h fabric.Hello) *ShardConn {
	return &ShardConn{
		owner:       l,
		hello:       h,
		shard:       l.shard,
		walkers:     fabric.NewMailbox[*fabric.Walker](),
		ingests:     fabric.NewMailbox[*fabric.Ingest](),
		views:       fabric.NewMailbox[*fabric.ViewMsg](),
		blocks:      fabric.NewMailbox[*fabric.MigrateBlock](),
		coord:       coord,
		peers:       map[int]*peerOut{},
		readerLinks: map[uint64]*link{},
		lastBcast: fabric.Broadcast{
			RangeSize: h.RangeSize,
			Replicas:  h.Replicas,
			Vertices:  h.NumVertices,
		},
	}
}

// readCoord drains the coordinator stream until shutdown or EOF, either
// of which ends the session: the local mailboxes close (drain-then-stop)
// so the node's loops wind down.
func (s *ShardConn) readCoord(l *link) {
	for {
		f, err := l.read()
		if err != nil {
			s.sessionDown()
			return
		}
		switch f.kind {
		case kWalker:
			s.walkers.Push(f.walker)
		case kWalkerBatch:
			for _, w := range f.walkers {
				s.walkers.Push(w)
			}
		case kUpdates, kBarrier:
			s.ingests.Push(f.ingest)
		case kBroadcast:
			s.relayBroadcast(f.bcast)
		case kShutdown:
			s.sessionDown()
			return
		}
	}
}

// relayBroadcast caches the write-coordinator's newest plan broadcast
// and fans it out to every attached reader link. A reader attached to N
// daemons receives each broadcast N times; broadcasts are full-state and
// sequence-stamped, so the duplicates are harmless.
func (s *ShardConn) relayBroadcast(b *fabric.Broadcast) {
	s.readerMu.Lock()
	if b.Seq >= s.lastBcast.Seq {
		s.lastBcast = *b
	}
	links := make([]*link, 0, len(s.readerLinks))
	for _, lk := range s.readerLinks {
		links = append(links, lk)
	}
	s.readerMu.Unlock()
	for _, lk := range links {
		lk.write(&frame{kind: kBroadcast, bcast: b}) //nolint:errcheck // dead reader links are reaped by their read loops
	}
}

// serveReader runs one attached read-coordinator link for its lifetime:
// register (so retires and view replies can route back), deliver the
// cached broadcast immediately, then pump inbound walker launches and
// view requests into the session streams with the reader's nonce stamped
// as their origin. EOF, a decode error, or a shutdown frame detaches the
// reader; the write session and every other reader are unaffected.
func (s *ShardConn) serveReader(lk *link, nonce uint64) {
	s.readerMu.Lock()
	if s.readersClosed {
		s.readerMu.Unlock()
		lk.conn.Close()
		return
	}
	s.readerLinks[nonce] = lk
	last := s.lastBcast
	s.readerMu.Unlock()
	if err := lk.write(&frame{kind: kBroadcast, bcast: &last}); err != nil {
		s.dropReader(nonce, lk)
		return
	}
	for {
		f, err := lk.read()
		if err != nil {
			s.dropReader(nonce, lk)
			return
		}
		switch f.kind {
		case kWalker:
			f.walker.Origin = nonce
			s.walkers.Push(f.walker)
		case kWalkerBatch:
			for _, w := range f.walkers {
				w.Origin = nonce
				s.walkers.Push(w)
			}
		case kViewReq:
			f.viewReq.Origin = nonce
			s.views.Push(&fabric.ViewMsg{Req: f.viewReq})
		case kShutdown:
			s.dropReader(nonce, lk)
			return
		default:
			s.dropReader(nonce, lk)
			return
		}
	}
}

// dropReader unregisters one reader link and closes its connection.
func (s *ShardConn) dropReader(nonce uint64, lk *link) {
	s.readerMu.Lock()
	if s.readerLinks[nonce] == lk {
		delete(s.readerLinks, nonce)
	}
	s.readerMu.Unlock()
	lk.conn.Close()
}

// readerLink returns the live link for a reader nonce (nil if detached).
func (s *ShardConn) readerLink(nonce uint64) *link {
	s.readerMu.Lock()
	defer s.readerMu.Unlock()
	return s.readerLinks[nonce]
}

// closeReaders detaches every reader link at session teardown: readers
// observe EOF on all their daemon links and end their event streams —
// they cannot outlive the write session whose plan they serve from.
func (s *ShardConn) closeReaders() {
	s.readerMu.Lock()
	s.readersClosed = true
	links := make([]*link, 0, len(s.readerLinks))
	for _, lk := range s.readerLinks {
		links = append(links, lk)
	}
	s.readerLinks = map[uint64]*link{}
	s.readerMu.Unlock()
	for _, lk := range links {
		lk.conn.Close()
	}
}

// readPeer drains one inbound peer stream (walker transfers and view
// traffic) for the life of the connection.
func (s *ShardConn) readPeer(l *link) {
	for {
		f, err := l.read()
		if err != nil {
			l.conn.Close()
			return
		}
		switch f.kind {
		case kWalker:
			s.walkers.Push(f.walker)
		case kWalkerBatch:
			for _, w := range f.walkers {
				s.walkers.Push(w)
			}
		case kViewReq:
			s.views.Push(&fabric.ViewMsg{Req: f.viewReq})
		case kViewRep:
			s.views.Push(&fabric.ViewMsg{Rep: f.viewRep})
		case kMigBlock:
			s.blocks.Push(f.migBlock)
		default:
			l.conn.Close()
			return
		}
	}
}

func (s *ShardConn) sessionDown() {
	s.downOnce.Do(func() {
		s.walkers.Close()
		s.ingests.Close()
		s.views.Close()
		s.blocks.Close()
		s.closeReaders()
	})
}

// Shard returns this daemon's shard index.
func (s *ShardConn) Shard() int { return s.shard }

// NextWalker pops the next inbound walker.
func (s *ShardConn) NextWalker() (*fabric.Walker, bool) { return s.walkers.Pop() }

func (s *ShardConn) NextWalkers(dst []*fabric.Walker, max int) ([]*fabric.Walker, bool) {
	return s.walkers.PopUpTo(dst, max)
}

// NextIngest pops the next ingest-stream element.
func (s *ShardConn) NextIngest() (*fabric.Ingest, bool) { return s.ingests.Pop() }

// NextView pops the next view-stream element.
func (s *ShardConn) NextView() (*fabric.ViewMsg, bool) { return s.views.Pop() }

// NextBlock pops the next inbound copied block.
func (s *ShardConn) NextBlock() (*fabric.MigrateBlock, bool) { return s.blocks.Pop() }

// peerOut is the ordered outbound stream toward one peer: a queue, a
// single sender goroutine that dials lazily and coalesces queued walker
// hand-offs into batched frames, and a dead flag once the stream fails.
type peerOut struct {
	sc  *ShardConn
	dst int

	mu     sync.Mutex
	queue  []outMsg
	dead   bool
	diedAt time.Time
	err    error

	wake chan struct{}
	stop chan struct{}
}

// outMsg is one queued peer-bound message; exactly one of the pointer
// fields is set. mbTries counts how many dead streams a copied block
// has already been stranded on, bounding redelivery.
type outMsg struct {
	w       *fabric.Walker
	rq      *fabric.ViewRequest
	rp      *fabric.ViewReply
	mb      *fabric.MigrateBlock
	mbTries int
}

// peer returns (starting lazily) the outbound stream toward shard dst.
// A dead stream is replaced with a fresh dial once peerRedialAfter has
// elapsed since it died — within the window callers fail fast, after it
// the link heals if the peer daemon is back.
func (s *ShardConn) peer(dst int) (*peerOut, error) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if p, ok := s.peers[dst]; ok {
		p.mu.Lock()
		dead, since := p.dead, p.diedAt
		p.mu.Unlock()
		if !dead || time.Since(since) < peerRedialAfter || s.peersClosed {
			return p, nil
		}
		// The dead sender's loop has exited; release its teardown
		// watcher before dropping the map entry so nothing leaks across
		// the replacement.
		close(p.stop)
		delete(s.peers, dst)
	}
	if s.peersClosed {
		// The session is tearing down: a fresh sender would never be
		// stopped and would leak its goroutine and socket in a
		// multi-session daemon.
		return nil, fmt.Errorf("tcpgob: session closed")
	}
	if dst < 0 || dst >= len(s.hello.Peers) {
		return nil, fmt.Errorf("tcpgob: no peer address for shard %d", dst)
	}
	p := &peerOut{
		sc:   s,
		dst:  dst,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	s.peers[dst] = p
	go p.loop()
	return p, nil
}

func (p *peerOut) enqueue(m outMsg) error {
	p.mu.Lock()
	if p.dead {
		err := p.err
		p.mu.Unlock()
		return err
	}
	p.queue = append(p.queue, m)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return nil
}

// loop dials the peer, then drains the queue: consecutive queued walkers
// go out as one kWalkerBatch frame (a lone walker as a kWalker frame —
// identical bytes-on-wire behavior to the unbatched fabric when there is
// nothing to coalesce), view messages as their own frames. On any write
// failure the stream is dead: queued and future walkers are retired to
// the coordinator as Failed so their walks error out instead of hanging.
func (p *peerOut) loop() {
	conn, err := dialRetry(p.sc.hello.Peers[p.dst], defaultDialAttempts, defaultDialTimeout, p.stop)
	if err != nil {
		p.fail(fmt.Errorf("tcpgob: dialing peer shard %d: %w", p.dst, err))
		return
	}
	l := newLink(conn)
	if err := l.write(&frame{kind: kHelloPeer, from: p.sc.shard, session: p.sc.hello.Session}); err != nil {
		conn.Close()
		p.fail(err)
		return
	}
	go func() { // teardown: unblock a sender stuck in a write
		<-p.stop
		conn.Close()
	}()
	go p.watch(conn)
	var batch []*fabric.Walker // kWalkerBatch scratch, reused across frames
	for {
		p.mu.Lock()
		q := p.queue
		p.queue = nil
		p.mu.Unlock()
		if len(q) == 0 {
			select {
			case <-p.wake:
				continue
			case <-p.stop:
				// Anything enqueued between the grab and the stop (and
				// anything enqueued later — fail marks the stream dead)
				// must still be retired Failed, per the ForwardWalker
				// contract: accepted walkers are never silently lost.
				p.fail(fmt.Errorf("tcpgob: session closed"))
				return
			}
		}
		i := 0
		for i < len(q) {
			var err error
			next := i + 1
			switch {
			case q[i].w != nil:
				// Coalesce the run of queued walkers into one frame.
				for next < len(q) && q[next].w != nil {
					next++
				}
				if next-i == 1 {
					err = l.write(&frame{kind: kWalker, walker: q[i].w})
				} else {
					batch = batch[:0]
					for _, m := range q[i:next] {
						batch = append(batch, m.w)
					}
					err = l.write(&frame{kind: kWalkerBatch, walkers: batch})
					clear(batch)
				}
				if err == nil {
					p.sc.transferFrames.Add(1)
					p.sc.transferWalkers.Add(int64(next - i))
				}
			case q[i].rq != nil:
				err = l.write(&frame{kind: kViewReq, viewReq: q[i].rq})
			case q[i].mb != nil:
				err = l.write(&frame{kind: kMigBlock, migBlock: q[i].mb})
			default:
				err = l.write(&frame{kind: kViewRep, viewRep: q[i].rp})
			}
			if err != nil {
				p.failWalkers(queuedWalkers(q[i:]))
				p.redeliverBlocks(queuedBlocks(q[i:]))
				p.fail(err)
				return
			}
			i = next
		}
	}
}

// watch marks the stream dead the moment the peer hangs up. The peer
// never sends on this stream, so the read returns only once the
// connection is gone. Write errors cannot stand in for it: the first write
// into a connection whose far end has closed succeeds (the reset comes
// back after it), so that frame — a walker, or with one write per frame a
// whole copied block — would vanish into a dead daemon unreported.
func (p *peerOut) watch(conn net.Conn) {
	var b [1]byte
	_, err := conn.Read(b[:])
	if err == nil {
		err = errors.New("unexpected inbound data")
	}
	p.fail(fmt.Errorf("tcpgob: peer shard %d hung up: %w", p.dst, err))
}

func queuedWalkers(q []outMsg) []*fabric.Walker {
	var ws []*fabric.Walker
	for _, m := range q {
		if m.w != nil {
			ws = append(ws, m.w)
		}
	}
	return ws
}

func queuedBlocks(q []outMsg) []outMsg {
	var mbs []outMsg
	for _, m := range q {
		if m.mb != nil {
			mbs = append(mbs, m)
		}
	}
	return mbs
}

// fail marks the stream dead and fails everything still queued.
func (p *peerOut) fail(err error) {
	p.mu.Lock()
	p.dead = true
	p.diedAt = time.Now()
	if p.err == nil {
		p.err = err
	}
	q := p.queue
	p.queue = nil
	p.mu.Unlock()
	p.failWalkers(queuedWalkers(q))
	p.redeliverBlocks(queuedBlocks(q))
}

// redeliverBlocks re-sends copied blocks stranded on this dead stream
// through a replacement once the redial window opens. The donor was
// already told the send succeeded, so dropping the block here would
// strand the copy: the recipient never installs, never reports
// MigrateDone, and the coordinator re-arms the attempt only on the next
// EvShardUp, which a healthy coordinator link never produces. This is exactly the kill -9 rejoin shape: the donor's
// peer stream to the victim dies with it, nothing writes to it while
// the victim's blocks are routed elsewhere, and the first frame that
// touches the zombie stream is the priming snapshot itself.
func (p *peerOut) redeliverBlocks(blocks []outMsg) {
	pending := make([]outMsg, 0, len(blocks))
	for _, m := range blocks {
		m.mbTries++
		if m.mbTries < blockRedeliverAttempts {
			pending = append(pending, m)
		}
	}
	if len(pending) == 0 {
		return
	}
	go func() {
		for len(pending) > 0 {
			// Sit out the redial window so peer() hands back a fresh
			// stream instead of this corpse.
			time.Sleep(peerRedialAfter + peerRedialAfter/4)
			rest := pending[:0]
			for _, m := range pending {
				np, err := p.sc.peer(p.dst)
				if err != nil {
					// Session torn down; the coordinator's death handling
					// owns any copy still in flight.
					return
				}
				if np.enqueue(m) != nil {
					// Replacement already dead too; wait out its window.
					m.mbTries++
					if m.mbTries < blockRedeliverAttempts {
						rest = append(rest, m)
					}
				}
			}
			pending = rest
		}
	}()
}

// failWalkers retires undeliverable walkers as Failed: the coordinator
// unblocks their callers with an error instead of waiting forever on a
// lost walk. If the retire path is down too the session is over and the
// coordinator's own death handling fails everything pending.
func (p *peerOut) failWalkers(ws []*fabric.Walker) {
	for _, w := range ws {
		w.Failed = true
		p.sc.Retire(w) //nolint:errcheck // see above
	}
}

// ForwardWalker hands a walker to peer shard dst: it enqueues on the
// peer's ordered sender, which coalesces transfers into batched frames.
// The walker must not be touched by the caller after the call.
func (s *ShardConn) ForwardWalker(dst int, w *fabric.Walker) error {
	p, err := s.peer(dst)
	if err != nil {
		return err
	}
	return p.enqueue(outMsg{w: w})
}

// RequestView asks peer shard dst for a hub view.
func (s *ShardConn) RequestView(dst int, rq *fabric.ViewRequest) error {
	p, err := s.peer(dst)
	if err != nil {
		return err
	}
	return p.enqueue(outMsg{rq: rq})
}

// ReplyView answers a peer's (or an attached reader's) view request: a
// reply carrying a reader origin goes back on that reader's own link; a
// detached reader's reply is dropped, never misdelivered.
func (s *ShardConn) ReplyView(dst int, rp *fabric.ViewReply) error {
	if rp.Origin != 0 {
		if lk := s.readerLink(rp.Origin); lk != nil {
			return lk.write(&frame{kind: kViewRep, viewRep: rp})
		}
		return nil
	}
	p, err := s.peer(dst)
	if err != nil {
		return err
	}
	return p.enqueue(outMsg{rp: rp})
}

// SendBlock ships an extracted ownership block to peer shard dst on the
// same ordered stream walker transfers use. A block is never refused
// just because the current stream is dead: within the redial window the
// block goes straight onto the redelivery path, so a donor priming a
// freshly restarted replica cannot lose blocks to the window between
// its zombie stream failing and the replacement dial.
func (s *ShardConn) SendBlock(dst int, mb *fabric.MigrateBlock) error {
	p, err := s.peer(dst)
	if err != nil {
		return err
	}
	m := outMsg{mb: mb}
	if p.enqueue(m) != nil {
		p.redeliverBlocks([]outMsg{m})
	}
	return nil
}

// Migrated reports a completed block install to the coordinator.
func (s *ShardConn) Migrated(d *fabric.MigrateDone) error {
	return s.coord.write(&frame{kind: kMigDone, migDone: d})
}

// Credit reports ingest-stream consumption to the coordinator. Credits
// are cumulative; one lost on a dying link is repaired by the next.
func (s *ShardConn) Credit(cr *fabric.Credit) error {
	return s.coord.write(&frame{kind: kCredit, credit: cr})
}

// Retire sends a finished walker back to the coordinator that launched
// it: the write-coordinator link for Origin 0, the originating reader's
// link otherwise. A retire for a detached reader is dropped silently —
// nobody is waiting on that walk anymore.
func (s *ShardConn) Retire(w *fabric.Walker) error {
	if w.Origin != 0 {
		if lk := s.readerLink(w.Origin); lk != nil {
			return lk.write(&frame{kind: kRetire, walker: w})
		}
		return nil
	}
	return s.coord.write(&frame{kind: kRetire, walker: w})
}

// Ack sends a barrier acknowledgement to the coordinator.
func (s *ShardConn) Ack(a *fabric.Ack) error {
	return s.coord.write(&frame{kind: kAck, ack: a})
}

// Close releases the session's end: peer streams stop, the coordinator
// connection closes (its EOF is the shard-done signal the coordinator's
// event stream waits for), and the owning listener is re-armed for the
// next session. Idempotent. The listener itself stays up — close it
// separately to stop serving.
func (s *ShardConn) Close() error {
	s.closeOnce.Do(func() {
		s.sessionDown()
		s.peerMu.Lock()
		s.peersClosed = true
		for _, p := range s.peers {
			close(p.stop)
		}
		s.peerMu.Unlock()
		// Re-arm the listener before the coordinator can observe this
		// connection's EOF: a coordinator that saw the session end and
		// immediately dials again must find the slot free.
		s.owner.sessionDone(s)
		s.coord.conn.Close()
	})
	return nil
}

// ---------------------------------------------------------------------------
// Coordinator side

// sessionSeq makes session nonces unique within a process; the time seed
// makes them unique across coordinator processes hitting one daemon.
var sessionSeq atomic.Uint64

func newSessionNonce() uint64 {
	return uint64(time.Now().UnixNano()) ^ (sessionSeq.Add(1) << 1) | 1
}

// DialConfig tunes the coordinator's connection behavior.
type DialConfig struct {
	// Attempts bounds the connect retries per address (default 5);
	// Timeout bounds each attempt (default 2s). Retries use jittered
	// exponential backoff, so a daemon started shortly *after* the
	// coordinator is found rather than fatal.
	Attempts int
	Timeout  time.Duration
	// Resilient keeps the session alive when a single daemon link dies:
	// instead of tearing the whole session down, the coordinator emits
	// EvShardDown for the lost shard, keeps serving on the surviving
	// links, and redials the address in the background, emitting
	// EvShardUp once the (restarted) daemon re-accepts the session.
	// Meant for replicated sessions, where the walk layer can promote
	// followers and re-prime a rejoiner; without replication a lost
	// shard is unrecoverable and the default fail-everything teardown
	// reports errors faster.
	Resilient bool
	// RedialInterval paces the background rejoin loop (default 500ms).
	RedialInterval time.Duration
}

func (d DialConfig) withDefaults() DialConfig {
	if d.Attempts <= 0 {
		d.Attempts = defaultDialAttempts
	}
	if d.Timeout <= 0 {
		d.Timeout = defaultDialTimeout
	}
	if d.RedialInterval <= 0 {
		d.RedialInterval = 500 * time.Millisecond
	}
	return d
}

// CoordConn is the coordinator's end of a session across a set of shard
// daemons. It implements fabric.CoordPort.
type CoordConn struct {
	addrs  []string
	hello  fabric.Hello
	cfg    DialConfig
	events *fabric.Mailbox[fabric.Event]
	stop   chan struct{}

	mu      sync.Mutex
	links   []*link
	readers int
	closed  bool
}

// Dial opens a session: it connects to every daemon address in shard
// order and sends each its Hello (hello.Shard, hello.Peers, and — unless
// the caller set one — hello.Session are filled in). Daemons need not be
// up yet: each connect retries with bounded backoff.
func Dial(addrs []string, hello fabric.Hello) (*CoordConn, error) {
	return DialWith(addrs, hello, DialConfig{})
}

// DialWith is Dial with explicit connection behavior.
func DialWith(addrs []string, hello fabric.Hello, cfg DialConfig) (*CoordConn, error) {
	cfg = cfg.withDefaults()
	c := &CoordConn{
		addrs:   addrs,
		cfg:     cfg,
		links:   make([]*link, len(addrs)),
		events:  fabric.NewMailbox[fabric.Event](),
		stop:    make(chan struct{}),
		readers: len(addrs),
	}
	hello.Shards = len(addrs)
	hello.Peers = addrs
	if hello.Session == 0 {
		hello.Session = newSessionNonce()
	}
	c.hello = hello
	for i, addr := range addrs {
		l, err := dialHello(addr, hello, i, cfg.Attempts, cfg.Timeout, c.stop)
		if err != nil {
			c.abort(i)
			return nil, err
		}
		c.links[i] = l
	}
	for i := range c.links {
		go c.readShard(i, c.links[i])
	}
	return c, nil
}

// dialHello connects to one daemon and opens the session on the link.
func dialHello(addr string, hello fabric.Hello, shard, attempts int, timeout time.Duration, stop <-chan struct{}) (*link, error) {
	conn, err := dialRetry(addr, attempts, timeout, stop)
	if err != nil {
		return nil, fmt.Errorf("tcpgob: dialing shard %d at %s: %w", shard, addr, err)
	}
	l := newLink(conn)
	h := hello
	h.Shard = shard
	if err := l.write(&frame{kind: kHelloCoord, hello: &h}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tcpgob: hello to shard %d: %w", shard, err)
	}
	return l, nil
}

// abort closes the links dialed so far ([0, n)) after a Dial failure.
func (c *CoordConn) abort(n int) {
	for i := 0; i < n; i++ {
		c.links[i].conn.Close()
	}
	c.events.Close()
}

// link returns the current link toward shard i (resilient sessions swap
// links on rejoin).
func (c *CoordConn) link(i int) *link {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.links[i]
}

// readShard pumps one daemon's coordinator-bound frames into the event
// stream.
//
// Default (non-resilient) sessions: a reader exiting before Close means
// a daemon died mid-session, and the whole session is over — every link
// is closed so the remaining readers unblock and the coordinator's event
// loop can fail whatever is pending instead of waiting forever; the last
// reader out closes the event stream.
//
// Resilient sessions: a lost link downs only its own shard — the reader
// emits EvShardDown and hands the address to a background rejoin loop,
// which dials until the daemon re-accepts the session and then emits
// EvShardUp with a fresh reader on the new link. The event stream closes
// only once the session is closed and the last reader has exited.
func (c *CoordConn) readShard(shard int, l *link) {
	defer func() {
		l.conn.Close()
		c.mu.Lock()
		c.readers--
		last := c.readers == 0
		closed := c.closed
		c.mu.Unlock()
		if !closed && !c.cfg.Resilient {
			c.mu.Lock()
			links := append([]*link(nil), c.links...)
			c.mu.Unlock()
			for _, peer := range links {
				peer.conn.Close()
			}
		}
		if last && (closed || !c.cfg.Resilient) {
			c.events.Close()
		}
		if !closed && c.cfg.Resilient {
			c.events.Push(fabric.Event{Kind: fabric.EvShardDown, Shard: shard})
			go c.rejoin(shard)
		}
	}()
	for {
		f, err := l.read()
		if err != nil {
			return
		}
		switch f.kind {
		case kRetire:
			c.events.Push(fabric.Event{Kind: fabric.EvRetire, Walker: f.walker})
		case kAck:
			c.events.Push(fabric.Event{Kind: fabric.EvAck, Ack: f.ack})
		case kMigDone:
			c.events.Push(fabric.Event{Kind: fabric.EvMigrated, Done: f.migDone})
		case kCredit:
			c.events.Push(fabric.Event{Kind: fabric.EvCredit, Credit: f.credit})
		}
	}
}

// rejoin redials one lost daemon until it re-accepts the session (same
// nonce, so peers' healing transfer streams are admitted), then swaps
// the link in and announces EvShardUp. A restarted daemon starts from an
// empty engine; the walk layer re-primes it (plan sync + block copies)
// before marking it live again. A redial that lands while the daemon's
// old session is still tearing down is refused by the listener and shows
// up as an immediate EvShardDown again — the loop simply runs another
// round.
func (c *CoordConn) rejoin(shard int) {
	for {
		select {
		case <-c.stop:
			return
		case <-time.After(c.cfg.RedialInterval):
		}
		l, err := dialHello(c.addrs[shard], c.hello, shard, 1, c.cfg.Timeout, c.stop)
		if err != nil {
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			l.conn.Close()
			return
		}
		c.links[shard] = l
		c.readers++
		c.mu.Unlock()
		c.events.Push(fabric.Event{Kind: fabric.EvShardUp, Shard: shard})
		go c.readShard(shard, l)
		return
	}
}

// Shards returns the session's shard count.
func (c *CoordConn) Shards() int { return len(c.addrs) }

// LaunchWalker starts a walker on shard dst.
func (c *CoordConn) LaunchWalker(dst int, w *fabric.Walker) error {
	return c.link(dst).write(&frame{kind: kWalker, walker: w})
}

// PublishUpdates appends a routed ingest element to shard dst's stream.
func (c *CoordConn) PublishUpdates(dst int, in fabric.Ingest) error {
	return c.link(dst).write(&frame{kind: kUpdates, ingest: &in})
}

// PublishBarrier appends a barrier token to every shard's ingest stream.
func (c *CoordConn) PublishBarrier(in fabric.Ingest) error {
	var first error
	for i := range c.addrs {
		if err := c.link(i).write(&frame{kind: kBarrier, ingest: &in}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PublishBroadcast ships the plan/watermark broadcast to every daemon,
// which caches it and relays it to its attached readers. Best-effort: a
// dead link's broadcast is skipped — the daemon either rejoins (and the
// next broadcast repairs its cache) or the session is over anyway.
func (c *CoordConn) PublishBroadcast(b fabric.Broadcast) error {
	for i := range c.addrs {
		c.link(i).write(&frame{kind: kBroadcast, bcast: &b}) //nolint:errcheck // best-effort fan-out; full-state broadcasts self-repair
	}
	return nil
}

// NextEvent pops the next retire or ack.
func (c *CoordConn) NextEvent() (fabric.Event, bool) { return c.events.Pop() }

// Close ends the session: a shutdown frame goes to every daemon, which
// drains its queues, retires its last walkers, and closes its connection;
// the event stream ends when the last connection does. A read deadline
// bounds teardown against a wedged daemon. Background rejoin loops stop.
func (c *CoordConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stop)
	links := append([]*link(nil), c.links...)
	none := c.readers == 0
	c.mu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for _, l := range links {
		l.write(&frame{kind: kShutdown}) //nolint:errcheck // best-effort teardown
		l.conn.SetReadDeadline(deadline) //nolint:errcheck // best-effort teardown
	}
	if none {
		// Every reader was already gone (resilient session with all
		// shards down): nobody is left to close the event stream.
		c.events.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Read-coordinator side

// ReaderConn is a read-coordinator's end of an attach across a shard
// set: one link per daemon, all announcing the same reader nonce with
// Hello.Role == RoleRead. It implements fabric.ReadPort. The attach
// requires an active write session on the daemons (each waits briefly
// for one); the reader's event stream ends when the write session does.
type ReaderConn struct {
	addrs  []string
	nonce  uint64
	events *fabric.Mailbox[fabric.Event]

	mu     sync.Mutex
	links  []*link
	pumps  int
	closed bool
}

// DialReader attaches a read-coordinator to every daemon address. The
// hello's Role and Session are filled in (a fresh reader nonce); the
// geometry fields may be left zero — the reader learns the live plan
// from the write session's broadcasts, the first of which each daemon
// sends immediately on attach.
func DialReader(addrs []string, hello fabric.Hello) (*ReaderConn, error) {
	return DialReaderWith(addrs, hello, DialConfig{})
}

// DialReaderWith is DialReader with explicit connection behavior.
func DialReaderWith(addrs []string, hello fabric.Hello, cfg DialConfig) (*ReaderConn, error) {
	cfg = cfg.withDefaults()
	r := &ReaderConn{
		addrs:  addrs,
		nonce:  newSessionNonce(),
		events: fabric.NewMailbox[fabric.Event](),
		links:  make([]*link, len(addrs)),
		pumps:  len(addrs),
	}
	hello.Role = fabric.RoleRead
	hello.Shards = len(addrs)
	hello.Session = r.nonce
	stop := make(chan struct{})
	defer close(stop)
	for i, addr := range addrs {
		l, err := dialHello(addr, hello, i, cfg.Attempts, cfg.Timeout, stop)
		if err != nil {
			for j := 0; j < i; j++ {
				r.links[j].conn.Close()
			}
			r.events.Close()
			return nil, err
		}
		r.links[i] = l
	}
	for i := range r.links {
		go r.readDaemon(r.links[i])
	}
	return r, nil
}

// readDaemon pumps one daemon's reader-bound frames into the event
// stream. Any link dying ends the whole attach (the common cause is the
// write session tearing down, which closes every reader link at once):
// all links close so the remaining pumps unblock, and the last pump out
// closes the event stream — the signal the reader service fails its
// pending queries on.
func (r *ReaderConn) readDaemon(l *link) {
	defer func() {
		l.conn.Close()
		r.mu.Lock()
		r.pumps--
		last := r.pumps == 0
		links := append([]*link(nil), r.links...)
		r.mu.Unlock()
		for _, peer := range links {
			peer.conn.Close()
		}
		if last {
			r.events.Close()
		}
	}()
	for {
		f, err := l.read()
		if err != nil {
			return
		}
		switch f.kind {
		case kRetire:
			r.events.Push(fabric.Event{Kind: fabric.EvRetire, Walker: f.walker})
		case kViewRep:
			r.events.Push(fabric.Event{Kind: fabric.EvView, Rep: f.viewRep})
		case kBroadcast:
			r.events.Push(fabric.Event{Kind: fabric.EvBroadcast, Bcast: f.bcast})
		}
	}
}

// Shards returns the attach's shard count.
func (r *ReaderConn) Shards() int { return len(r.addrs) }

// link returns the link toward daemon i.
func (r *ReaderConn) link(i int) *link {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.links[i]
}

// LaunchWalker starts a walker on shard dst; the daemon stamps this
// reader's nonce as its origin (stamped here too for the inproc-parity
// of the walk layer's view of the walker it handed over).
func (r *ReaderConn) LaunchWalker(dst int, w *fabric.Walker) error {
	w.Origin = r.nonce
	return r.link(dst).write(&frame{kind: kWalker, walker: w})
}

// RequestView asks shard dst for a hub view; the reply comes back as an
// EvView event on this reader's stream.
func (r *ReaderConn) RequestView(dst int, rq *fabric.ViewRequest) error {
	rq.Origin = r.nonce
	return r.link(dst).write(&frame{kind: kViewReq, viewReq: rq})
}

// NextEvent pops the next reader-bound event.
func (r *ReaderConn) NextEvent() (fabric.Event, bool) { return r.events.Pop() }

// Close detaches the reader: a shutdown frame tells each daemon to
// unregister this reader's link, then the connections close and the
// event stream ends once the pumps drain. The write session and the
// shard set are untouched.
func (r *ReaderConn) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	links := append([]*link(nil), r.links...)
	r.mu.Unlock()
	for _, l := range links {
		l.write(&frame{kind: kShutdown}) //nolint:errcheck // best-effort teardown
		l.conn.Close()
	}
	return nil
}
