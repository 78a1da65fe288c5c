package tcpgob

// The wire format: framing (a link reads and writes length-prefixed
// frames) and one hand-rolled, append-style binary codec for every frame
// kind. The package comment states the framing rules, DESIGN.md tabulates
// the per-kind byte layout.
//
// Conventions, shared by every message:
//
//   - all integers are fixed-width little-endian; Go int travels as i64,
//     bool as one byte that must be 0 or 1, float as its IEEE bit pattern;
//   - a slice or string is a u32 count followed by its elements; a count
//     is checked against the bytes remaining in the frame *before*
//     anything is allocated, so decode allocation is O(frame length);
//   - an empty slice decodes as nil;
//   - optional sections sit behind one presence-flags byte per message,
//     written in flag-bit order;
//   - the encoding is canonical: a decoder rejects unknown flag bits, a
//     section flagged present that holds only zero values and trailing
//     bytes, so every accepted frame re-encodes to the identical bytes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
)

// wireVersion is the codec revision. Both hello kinds carry it as their
// first payload byte and a daemon refuses any other value: the layout has
// no self-description, so two builds that disagree on it must not talk.
// Bump it on every change to any message layout.
const wireVersion = 6

var le = binary.LittleEndian

const (
	// maxFrame bounds a single frame's body (sanity check against a torn
	// or hostile stream; bootstrap batches and edge dumps are the big
	// ones).
	maxFrame = 1 << 30
	// maxHelloFrame bounds the first frame of an accepted connection: until
	// the hello names the dialer, nothing it claims is worth buffering for.
	maxHelloFrame = 1 << 20
	// bufChunk is both the step by which a link's read buffer grows toward
	// a large frame — only as the bytes actually arrive, so a length header
	// alone never sizes an allocation — and the largest buffer a link keeps
	// between frames: bootstrap batches and edge dumps give theirs back.
	bufChunk = 1 << 20
)

// decodeErrors counts inbound frames the transport refused: a length
// outside the link's limit, a stream that ended mid-frame, a body the
// codec rejected (wire-version mismatch included).
var decodeErrors = obs.C("bingo_fabric_decode_errors_total", "fabric", "tcp")

// link is one connection with a locked writer. Reads are owned by exactly
// one goroutine and need no lock.
type link struct {
	conn net.Conn

	br      *bufio.Reader
	hdr     [4]byte
	rbuf    []byte // frame body buffer, reused across reads
	rxLimit int    // largest frame body read accepts

	mu   sync.Mutex
	wbuf []byte // encode buffer, reused across writes under mu
}

func newLink(conn net.Conn) *link {
	return &link{conn: conn, br: bufio.NewReader(conn), rxLimit: maxFrame}
}

// write encodes f into the link's buffer and sends it as one frame in a
// single conn.Write.
func (l *link) write(f *frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := appendFrame(l.wbuf[:0], f)
	if cap(b) <= bufChunk {
		l.wbuf = b[:0]
	} else {
		l.wbuf = nil
	}
	if len(b)-4 > maxFrame {
		return fmt.Errorf("tcpgob: %s frame of %d bytes exceeds limit", kindName(f.kind), len(b)-4)
	}
	if _, err := l.conn.Write(b); err != nil {
		return err
	}
	txFrames[f.kind].Inc()
	txBytes[f.kind].Add(int64(len(b)))
	return nil
}

// read decodes the next frame (blocking). The frame's payload values are
// freshly allocated; nothing in them aliases the link's buffer.
func (l *link) read() (frame, error) {
	n, err := l.readBody()
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			decodeErrors.Inc() // the stream ended mid-frame
		}
		return frame{}, err
	}
	f, err := decodeFrame(l.rbuf[:n])
	if cap(l.rbuf) > bufChunk {
		l.rbuf = nil
	}
	if err != nil {
		decodeErrors.Inc()
		return frame{}, err
	}
	rxFrames[f.kind].Inc()
	rxBytes[f.kind].Add(int64(n) + 4)
	return f, nil
}

// readBody reads the next frame's length header and then its body into
// l.rbuf[:n], growing the buffer in steps of at most bufChunk as bytes
// arrive.
func (l *link) readBody() (n int, err error) {
	if _, err := io.ReadFull(l.br, l.hdr[:]); err != nil {
		return 0, err
	}
	n = int(le.Uint32(l.hdr[:]))
	if n < 1 || n > l.rxLimit {
		decodeErrors.Inc()
		return 0, fmt.Errorf("tcpgob: frame length %d outside [1, %d]", n, l.rxLimit)
	}
	p := l.rbuf[:0]
	for len(p) < n {
		step := min(n-len(p), bufChunk)
		p = slices.Grow(p, step)[:len(p)+step]
		if _, err := io.ReadFull(l.br, p[len(p)-step:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
	}
	l.rbuf = p
	return n, nil
}

// frame is one wire message: the kind plus the payload that kind carries
// (see the kind constants). The send path encodes straight from the
// caller's pointers; the read path decodes into freshly allocated values
// that are handed to the mailboxes as they are.
type frame struct {
	kind     uint8
	from     int    // kHelloPeer: sender shard index
	session  uint64 // kHelloPeer: dialer's session nonce
	hello    *fabric.Hello
	walker   *fabric.Walker   // kWalker / kRetire
	walkers  []*fabric.Walker // kWalkerBatch
	ingest   *fabric.Ingest   // kUpdates / kBarrier
	ack      *fabric.Ack
	viewReq  *fabric.ViewRequest
	viewRep  *fabric.ViewReply
	migBlock *fabric.MigrateBlock
	migDone  *fabric.MigrateDone
	credit   *fabric.Credit
	bcast    *fabric.Broadcast
}

// appendFrame appends f as one complete frame: the u32 length of what
// follows it, the kind byte, the kind's payload.
func appendFrame(b []byte, f *frame) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, f.kind)
	switch f.kind {
	case kHelloCoord:
		b = append(b, wireVersion)
		b = appendHello(b, f.hello)
	case kHelloPeer:
		b = append(b, wireVersion)
		b = appendInt(b, f.from)
		b = le.AppendUint64(b, f.session)
	case kWalker, kRetire:
		b = appendWalker(b, f.walker)
	case kWalkerBatch:
		b = le.AppendUint32(b, uint32(len(f.walkers)))
		for _, w := range f.walkers {
			b = appendWalker(b, w)
		}
	case kUpdates, kBarrier:
		b = appendIngest(b, f.ingest)
	case kAck:
		b = appendAck(b, f.ack)
	case kViewReq:
		b = appendViewRequest(b, f.viewReq)
	case kViewRep:
		b = appendViewReply(b, f.viewRep)
	case kShutdown:
	case kMigBlock:
		b = appendMigrateBlock(b, f.migBlock)
	case kMigDone:
		b = appendMigrateDone(b, f.migDone)
	case kCredit:
		b = appendInt(b, f.credit.Shard)
		b = appendI64(b, f.credit.Credited)
	case kBroadcast:
		b = appendBroadcast(b, f.bcast)
	default:
		panic(fmt.Sprintf("tcpgob: encoding unknown frame kind %d", f.kind))
	}
	le.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// decodeFrame decodes one frame body (the kind byte and payload, without
// the length header). A body the kind's decoder does not consume exactly
// is an error.
func decodeFrame(p []byte) (frame, error) {
	c := cursor{b: p}
	f := frame{kind: c.u8()}
	switch f.kind {
	case kHelloCoord:
		c.version()
		f.hello = new(fabric.Hello)
		c.hello(f.hello)
	case kHelloPeer:
		c.version()
		f.from = c.int()
		f.session = c.u64()
	case kWalker, kRetire:
		f.walker = new(fabric.Walker)
		c.walker(f.walker)
	case kWalkerBatch:
		if n := c.count(walkerFixed); n > 0 {
			ws := make([]fabric.Walker, n)
			f.walkers = make([]*fabric.Walker, n)
			for i := range ws {
				c.walker(&ws[i])
				f.walkers[i] = &ws[i]
			}
		}
	case kUpdates, kBarrier:
		f.ingest = new(fabric.Ingest)
		c.ingest(f.ingest)
	case kAck:
		f.ack = new(fabric.Ack)
		c.ack(f.ack)
	case kViewReq:
		f.viewReq = &fabric.ViewRequest{From: c.int(), Vertex: c.u32(), Origin: c.u64()}
	case kViewRep:
		f.viewRep = new(fabric.ViewReply)
		c.viewReply(f.viewRep)
	case kShutdown:
	case kMigBlock:
		f.migBlock = &fabric.MigrateBlock{Block: c.u64(), From: c.int(), Epoch: c.u64(), Watermark: c.i64()}
		f.migBlock.Rows = c.updates()
	case kMigDone:
		f.migDone = &fabric.MigrateDone{Shard: c.int(), Block: c.u64(), Epoch: c.u64(), Edges: c.i64(), Err: c.str()}
	case kCredit:
		f.credit = &fabric.Credit{Shard: c.int(), Credited: c.i64()}
	case kBroadcast:
		f.bcast = new(fabric.Broadcast)
		c.broadcast(f.bcast)
	default:
		c.fail(fmt.Sprintf("unknown frame kind %d", f.kind))
	}
	if c.err == nil && len(c.b) != 0 {
		c.fail(fmt.Sprintf("%d trailing bytes", len(c.b)))
	}
	if c.err != nil {
		return frame{}, fmt.Errorf("tcpgob: decode %s frame: %w", kindName(f.kind), c.err)
	}
	return f, nil
}

func kindName(k uint8) string {
	if k == 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// ---------------------------------------------------------------------------
// Primitives

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendI64(b []byte, v int64) []byte { return le.AppendUint64(b, uint64(v)) }

func appendInt(b []byte, v int) []byte { return le.AppendUint64(b, uint64(int64(v))) }

func appendF64(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

func appendString(b []byte, s string) []byte {
	b = le.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendCol32 / appendCol64 / appendColF32 / appendColF64 append one bulk
// column: the u32 element count, then the elements back to back. They
// reserve the column's size up front so a large batch grows the buffer
// once, not by doubling.
func appendCol32[T ~uint32 | ~int32](b []byte, v []T) []byte {
	b = slices.Grow(b, 4+4*len(v))
	b = le.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = le.AppendUint32(b, uint32(x))
	}
	return b
}

func appendCol64[T ~uint64 | ~int64](b []byte, v []T) []byte {
	b = slices.Grow(b, 4+8*len(v))
	b = le.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = le.AppendUint64(b, uint64(x))
	}
	return b
}

func appendColF32(b []byte, v []float32) []byte {
	b = slices.Grow(b, 4+4*len(v))
	b = le.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = le.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

func appendColF64(b []byte, v []float64) []byte {
	b = slices.Grow(b, 4+8*len(v))
	b = le.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = appendF64(b, x)
	}
	return b
}

// cursor reads one frame body front to back. The first failure sticks:
// every later read returns zero values, so a decoder runs straight through
// and checks err once at the end.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(msg string) {
	if c.err == nil {
		c.err = errors.New(msg)
	}
	c.b = nil
}

// take consumes the next n bytes; on a short frame it fails the cursor
// and returns nil.
func (c *cursor) take(n int) []byte {
	if n > len(c.b) {
		c.fail("truncated")
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u8() uint8 {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *cursor) u16() uint16 {
	if p := c.take(2); p != nil {
		return le.Uint16(p)
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

func (c *cursor) i64() int64   { return int64(c.u64()) }
func (c *cursor) int() int     { return int(c.i64()) }
func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) bool() bool {
	v := c.u8()
	if v > 1 {
		c.fail("bool byte not 0 or 1")
	}
	return v == 1
}

// flags reads a flags byte and rejects bits outside known.
func (c *cursor) flags(known uint8) uint8 {
	v := c.u8()
	if v&^known != 0 {
		c.fail(fmt.Sprintf("unknown flag bits %#x", v&^known))
		return 0
	}
	return v
}

// count reads a u32 element count and checks that many elements of at
// least elem bytes each still fit in the frame — the guard that keeps a
// hostile count from sizing an allocation.
func (c *cursor) count(elem int) int {
	n := c.u32()
	if uint64(n)*uint64(elem) > uint64(len(c.b)) {
		c.fail(fmt.Sprintf("count %d exceeds the frame", n))
		return 0
	}
	return int(n)
}

// present reads the count of a section its message flagged present; an
// empty one is non-canonical (the encoder would have cleared the flag).
func (c *cursor) present(elem int) int {
	n := c.count(elem)
	if n == 0 && c.err == nil {
		c.fail("section flagged present is empty")
	}
	return n
}

func (c *cursor) str() string { return string(c.take(c.count(1))) }

func (c *cursor) version() {
	if v := c.u8(); c.err == nil && v != wireVersion {
		c.fail(fmt.Sprintf("wire version %d, this build speaks %d", v, wireVersion))
	}
}

func col32[T ~uint32 | ~int32](c *cursor) []T {
	n := c.count(4)
	if n == 0 {
		return nil
	}
	p, v := c.take(4*n), make([]T, n)
	for i := range v {
		v[i] = T(le.Uint32(p[4*i:]))
	}
	return v
}

func col64[T ~uint64 | ~int64](c *cursor) []T {
	n := c.count(8)
	if n == 0 {
		return nil
	}
	p, v := c.take(8*n), make([]T, n)
	for i := range v {
		v[i] = T(le.Uint64(p[8*i:]))
	}
	return v
}

func (c *cursor) colF32() []float32 {
	n := c.count(4)
	if n == 0 {
		return nil
	}
	p, v := c.take(4*n), make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(le.Uint32(p[4*i:]))
	}
	return v
}

func (c *cursor) colF64() []float64 {
	n := c.count(8)
	if n == 0 {
		return nil
	}
	p, v := c.take(8*n), make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(le.Uint64(p[8*i:]))
	}
	return v
}

// ---------------------------------------------------------------------------
// Walker

const (
	walkerRecord = 1 << iota
	walkerFailed
)

// walkerFixed is a walker's encoded size with an empty path.
const walkerFixed = 8 + 4 + 8 + 32 + 1 + 32 + 8 + 8 + 4

func appendWalker(b []byte, w *fabric.Walker) []byte {
	b = le.AppendUint64(b, w.ID)
	b = le.AppendUint32(b, w.Cur)
	b = appendInt(b, w.Left)
	b = le.AppendUint64(b, w.Rng.S0)
	b = le.AppendUint64(b, w.Rng.S1)
	b = le.AppendUint64(b, w.Rng.S2)
	b = le.AppendUint64(b, w.Rng.S3)
	var fl uint8
	if w.Record {
		fl |= walkerRecord
	}
	if w.Failed {
		fl |= walkerFailed
	}
	b = append(b, fl)
	b = appendI64(b, w.Steps)
	b = appendI64(b, w.Transfers)
	b = appendI64(b, w.Local)
	b = appendI64(b, w.Remote)
	b = appendInt(b, w.Reroutes)
	b = le.AppendUint64(b, w.Origin)
	return appendCol32(b, w.Path)
}

func (c *cursor) walker(w *fabric.Walker) {
	w.ID = c.u64()
	w.Cur = c.u32()
	w.Left = c.int()
	w.Rng.S0, w.Rng.S1, w.Rng.S2, w.Rng.S3 = c.u64(), c.u64(), c.u64(), c.u64()
	fl := c.flags(walkerRecord | walkerFailed)
	w.Record, w.Failed = fl&walkerRecord != 0, fl&walkerFailed != 0
	w.Steps, w.Transfers, w.Local, w.Remote = c.i64(), c.i64(), c.i64(), c.i64()
	w.Reroutes = c.int()
	w.Origin = c.u64()
	w.Path = col32[graph.VertexID](c)
}

// ---------------------------------------------------------------------------
// Update and edge batches (columnar)

// colFBias flags the optional float-bias column of an update or edge
// batch; integer-bias sessions never ship it.
const colFBias = 1

// An update batch is u32 count | u8 columns | Op u8×n | Src u32×n |
// Dst u32×n | Bias u64×n | [FBias f64×n].
const (
	updateRow = 1 + 4 + 4 + 8
	edgeRow   = 4 + 4 + 8
)

func appendUpdates(b []byte, ups []graph.Update) []byte {
	var cols uint8
	for i := range ups {
		if math.Float64bits(ups[i].FBias) != 0 {
			cols = colFBias
			break
		}
	}
	b = slices.Grow(b, 5+len(ups)*(updateRow+8))
	b = le.AppendUint32(b, uint32(len(ups)))
	b = append(b, cols)
	for i := range ups {
		b = append(b, byte(ups[i].Op))
	}
	for i := range ups {
		b = le.AppendUint32(b, ups[i].Src)
	}
	for i := range ups {
		b = le.AppendUint32(b, ups[i].Dst)
	}
	for i := range ups {
		b = le.AppendUint64(b, ups[i].Bias)
	}
	if cols != 0 {
		for i := range ups {
			b = appendF64(b, ups[i].FBias)
		}
	}
	return b
}

// batchHeader reads a columnar batch's count and column flags and checks
// the rows fit; row is the per-element size without the optional column.
func (c *cursor) batchHeader(row int) (n int, fbias bool) {
	cnt, cols := c.u32(), c.flags(colFBias)
	if cols != 0 {
		row += 8
	}
	if uint64(cnt)*uint64(row) > uint64(len(c.b)) {
		c.fail(fmt.Sprintf("batch of %d rows exceeds the frame", cnt))
		return 0, false
	}
	if cnt == 0 && cols != 0 {
		c.fail("empty batch flags a column")
	}
	return int(cnt), cols != 0
}

// fbiasColumn takes the optional float-bias column's n raw values; a
// column of nothing but zero bits is non-canonical.
func (c *cursor) fbiasColumn(n int) []byte {
	p, or := c.take(8*n), uint64(0)
	for i := 0; i < len(p); i += 8 {
		or |= le.Uint64(p[i:])
	}
	if or == 0 && c.err == nil {
		c.fail("float-bias column is all zero")
		return nil
	}
	return p
}

func (c *cursor) updates() []graph.Update {
	n, fbias := c.batchHeader(updateRow)
	if n == 0 {
		return nil
	}
	ups := make([]graph.Update, n)
	op, src, dst, bias := c.take(n), c.take(4*n), c.take(4*n), c.take(8*n)
	for i := range ups {
		ups[i] = graph.Update{
			Op:   graph.Op(op[i]),
			Src:  le.Uint32(src[4*i:]),
			Dst:  le.Uint32(dst[4*i:]),
			Bias: le.Uint64(bias[8*i:]),
		}
	}
	if fbias {
		if p := c.fbiasColumn(n); p != nil {
			for i := range ups {
				ups[i].FBias = math.Float64frombits(le.Uint64(p[8*i:]))
			}
		}
	}
	return ups
}

func appendEdges(b []byte, es []graph.Edge) []byte {
	var cols uint8
	for i := range es {
		if math.Float64bits(es[i].FBias) != 0 {
			cols = colFBias
			break
		}
	}
	b = slices.Grow(b, 5+len(es)*(edgeRow+8))
	b = le.AppendUint32(b, uint32(len(es)))
	b = append(b, cols)
	for i := range es {
		b = le.AppendUint32(b, es[i].Src)
	}
	for i := range es {
		b = le.AppendUint32(b, es[i].Dst)
	}
	for i := range es {
		b = le.AppendUint64(b, es[i].Bias)
	}
	if cols != 0 {
		for i := range es {
			b = appendF64(b, es[i].FBias)
		}
	}
	return b
}

func (c *cursor) edges() []graph.Edge {
	n, fbias := c.batchHeader(edgeRow)
	if n == 0 {
		return nil
	}
	es := make([]graph.Edge, n)
	src, dst, bias := c.take(4*n), c.take(4*n), c.take(8*n)
	for i := range es {
		es[i] = graph.Edge{Src: le.Uint32(src[4*i:]), Dst: le.Uint32(dst[4*i:]), Bias: le.Uint64(bias[8*i:])}
	}
	if fbias {
		if p := c.fbiasColumn(n); p != nil {
			for i := range es {
				es[i].FBias = math.Float64frombits(le.Uint64(p[8*i:]))
			}
		}
	}
	return es
}

// ---------------------------------------------------------------------------
// Ingest

const (
	inDump = 1 << iota
	inBoot
	inOffer
	inCommit
	inDown
	inPlan
	inKnown = inPlan<<1 - 1
)

func appendIngest(b []byte, in *fabric.Ingest) []byte {
	var fl uint8
	if in.Dump {
		fl |= inDump
	}
	if in.Boot {
		fl |= inBoot
	}
	if in.Offer != (fabric.MigrateOffer{}) {
		fl |= inOffer
	}
	if in.Commit != (fabric.MigrateCommit{}) {
		fl |= inCommit
	}
	if in.Down != (fabric.ShardDown{}) {
		fl |= inDown
	}
	if in.Plan != nil {
		fl |= inPlan
	}
	b = append(b, fl)
	b = le.AppendUint64(b, in.Barrier)
	b = appendCol64(b, in.Watermarks)
	b = appendUpdates(b, in.Ups)
	if fl&inOffer != 0 {
		b = le.AppendUint64(b, in.Offer.Block)
		b = appendInt(b, in.Offer.To)
		b = le.AppendUint64(b, in.Offer.Epoch)
	}
	if fl&inCommit != 0 {
		b = le.AppendUint64(b, in.Commit.Block)
		b = appendInt(b, in.Commit.From)
		b = appendInt(b, in.Commit.To)
		b = le.AppendUint64(b, in.Commit.Epoch)
		b = appendI64(b, in.Commit.MinWatermark)
	}
	if fl&inDown != 0 {
		b = appendInt(b, in.Down.Shard)
		b = le.AppendUint64(b, in.Down.Epoch)
		b = appendBool(b, in.Down.Up)
	}
	if fl&inPlan != 0 {
		b = le.AppendUint64(b, in.Plan.Epoch)
		b = le.AppendUint64(b, in.Plan.DeadMask)
	}
	return b
}

func (c *cursor) ingest(in *fabric.Ingest) {
	fl := c.flags(inKnown)
	in.Dump, in.Boot = fl&inDump != 0, fl&inBoot != 0
	in.Barrier = c.u64()
	in.Watermarks = col64[int64](c)
	in.Ups = c.updates()
	if fl&inOffer != 0 {
		in.Offer = fabric.MigrateOffer{Block: c.u64(), To: c.int(), Epoch: c.u64()}
		if in.Offer == (fabric.MigrateOffer{}) {
			c.fail("zero offer flagged present")
		}
	}
	if fl&inCommit != 0 {
		in.Commit = fabric.MigrateCommit{Block: c.u64(), From: c.int(), To: c.int(), Epoch: c.u64(), MinWatermark: c.i64()}
		if in.Commit == (fabric.MigrateCommit{}) {
			c.fail("zero commit flagged present")
		}
	}
	if fl&inDown != 0 {
		in.Down = fabric.ShardDown{Shard: c.int(), Epoch: c.u64(), Up: c.bool()}
		if in.Down == (fabric.ShardDown{}) {
			c.fail("zero liveness flip flagged present")
		}
	}
	if fl&inPlan != 0 {
		in.Plan = &fabric.PlanState{Epoch: c.u64(), DeadMask: c.u64()}
	}
}

// ---------------------------------------------------------------------------
// Ack

const (
	ackErr = 1 << iota
	ackEdges
	ackObs
	ackKnown = ackObs<<1 - 1
)

func appendAck(b []byte, a *fabric.Ack) []byte {
	b = appendInt(b, a.Shard)
	b = le.AppendUint64(b, a.Seq)
	b = appendI64(b, a.Updates)
	b = appendI64(b, a.Dropped)
	b = appendInt(b, a.Vertices)
	b = appendI64(b, a.Steps)
	b = appendI64(b, a.Cache.LocalHits)
	b = appendI64(b, a.Cache.LocalStale)
	b = appendI64(b, a.Cache.RemoteHits)
	b = appendI64(b, a.Cache.RemoteStale)
	b = appendI64(b, a.Cache.ViewRequests)
	b = appendI64(b, a.Cache.ViewsServed)
	var fl uint8
	if a.Err != "" {
		fl |= ackErr
	}
	if len(a.Edges) > 0 {
		fl |= ackEdges
	}
	if len(a.Obs.Counters) > 0 {
		fl |= ackObs
	}
	b = append(b, fl)
	if fl&ackErr != 0 {
		b = appendString(b, a.Err)
	}
	if fl&ackEdges != 0 {
		b = appendEdges(b, a.Edges)
	}
	if fl&ackObs != 0 {
		b = le.AppendUint32(b, uint32(len(a.Obs.Counters)))
		for i := range a.Obs.Counters {
			b = appendString(b, a.Obs.Counters[i].Key)
			b = appendI64(b, a.Obs.Counters[i].Val)
		}
	}
	return b
}

func (c *cursor) ack(a *fabric.Ack) {
	a.Shard = c.int()
	a.Seq = c.u64()
	a.Updates, a.Dropped = c.i64(), c.i64()
	a.Vertices = c.int()
	a.Steps = c.i64()
	a.Cache = fabric.CacheTallies{
		LocalHits: c.i64(), LocalStale: c.i64(),
		RemoteHits: c.i64(), RemoteStale: c.i64(),
		ViewRequests: c.i64(), ViewsServed: c.i64(),
	}
	fl := c.flags(ackKnown)
	if fl&ackErr != 0 {
		a.Err = string(c.take(c.present(1)))
	}
	if fl&ackEdges != 0 {
		if a.Edges = c.edges(); a.Edges == nil && c.err == nil {
			c.fail("section flagged present is empty")
		}
	}
	if fl&ackObs != 0 {
		a.Obs.Counters = make([]obs.KV, c.present(12))
		for i := range a.Obs.Counters {
			a.Obs.Counters[i] = obs.KV{Key: c.str(), Val: c.i64()}
		}
	}
}

// ---------------------------------------------------------------------------
// Hub views

func appendViewRequest(b []byte, rq *fabric.ViewRequest) []byte {
	b = appendInt(b, rq.From)
	b = le.AppendUint32(b, rq.Vertex)
	return le.AppendUint64(b, rq.Origin)
}

const (
	viewHub = 1 << iota
	viewDec
)

// viewGroupFixed is a view group's encoded size with an empty list.
const viewGroupFixed = 2 + 1 + 4 + 4 + 4

func appendViewReply(b []byte, rp *fabric.ViewReply) []byte {
	v := &rp.View
	b = appendInt(b, rp.From)
	b = le.AppendUint32(b, rp.Vertex)
	var fl uint8
	if rp.Hub {
		fl |= viewHub
	}
	if v.Dec {
		fl |= viewDec
	}
	b = append(b, fl)
	b = appendI64(b, rp.Applied)
	b = le.AppendUint64(b, rp.Origin)
	b = le.AppendUint32(b, v.Vertex)
	b = le.AppendUint64(b, v.Epoch)
	b = appendI64(b, v.Applied)
	b = appendInt(b, v.RadixBits)
	b = appendF64(b, v.DecSum)
	b = appendCol32(b, v.Dsts)
	b = appendCol64(b, v.Bias)
	b = appendColF32(b, v.Rem)
	b = appendColF64(b, v.Cum)
	b = appendCol32(b, v.DecList)
	b = appendCol64(b, v.AliasCut)
	b = appendCol32(b, v.AliasIdx)
	b = le.AppendUint32(b, uint32(len(v.Groups)))
	for i := range v.Groups {
		g := &v.Groups[i]
		b = le.AppendUint16(b, uint16(g.GID))
		b = append(b, byte(g.Kind))
		b = le.AppendUint32(b, uint32(g.Count))
		b = le.AppendUint32(b, uint32(g.One))
		b = appendCol32(b, g.List)
	}
	return b
}

func (c *cursor) viewReply(rp *fabric.ViewReply) {
	v := &rp.View
	rp.From = c.int()
	rp.Vertex = c.u32()
	fl := c.flags(viewHub | viewDec)
	rp.Hub, v.Dec = fl&viewHub != 0, fl&viewDec != 0
	rp.Applied = c.i64()
	rp.Origin = c.u64()
	v.Vertex = c.u32()
	v.Epoch = c.u64()
	v.Applied = c.i64()
	v.RadixBits = c.int()
	v.DecSum = c.f64()
	v.Dsts = col32[graph.VertexID](c)
	v.Bias = col64[uint64](c)
	v.Rem = c.colF32()
	v.Cum = c.colF64()
	v.DecList = col32[int32](c)
	v.AliasCut = col64[uint64](c)
	v.AliasIdx = col32[int32](c)
	if n := c.count(viewGroupFixed); n > 0 {
		v.Groups = make([]core.ViewGroup, n)
		for i := range v.Groups {
			v.Groups[i] = core.ViewGroup{
				GID:   int16(c.u16()),
				Kind:  core.GroupKind(c.u8()),
				Count: int32(c.u32()),
				One:   int32(c.u32()),
				List:  col32[int32](c),
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Replica priming (block copies)

func appendMigrateBlock(b []byte, mb *fabric.MigrateBlock) []byte {
	b = le.AppendUint64(b, mb.Block)
	b = appendInt(b, mb.From)
	b = le.AppendUint64(b, mb.Epoch)
	b = appendI64(b, mb.Watermark)
	return appendUpdates(b, mb.Rows)
}

func appendMigrateDone(b []byte, d *fabric.MigrateDone) []byte {
	b = appendInt(b, d.Shard)
	b = le.AppendUint64(b, d.Block)
	b = le.AppendUint64(b, d.Epoch)
	b = appendI64(b, d.Edges)
	return appendString(b, d.Err)
}

// ---------------------------------------------------------------------------
// Session hello and plan broadcast

const (
	helloFloatBias = 1 << iota
	helloCacheOff
	helloAdaptive
	helloInstrument
)

func appendHello(b []byte, h *fabric.Hello) []byte {
	b = appendString(b, h.Role)
	b = appendInt(b, h.Shards)
	b = appendInt(b, h.Shard)
	b = appendInt(b, h.RangeSize)
	b = appendInt(b, h.NumVertices)
	var fl uint8
	if h.Sampler.FloatBias {
		fl |= helloFloatBias
	}
	if h.Cache.Off {
		fl |= helloCacheOff
	}
	if h.Sampler.Adaptive {
		fl |= helloAdaptive
	}
	if h.Sampler.Instrument {
		fl |= helloInstrument
	}
	b = append(b, fl)
	b = appendInt(b, h.Sampler.RadixBits)
	b = appendF64(b, h.Sampler.AlphaPct)
	b = appendF64(b, h.Sampler.BetaPct)
	b = appendF64(b, h.Sampler.Lambda)
	b = appendInt(b, h.Sampler.IndexThreshold)
	b = appendInt(b, h.Sampler.Workers)
	b = le.AppendUint32(b, uint32(len(h.Peers)))
	for _, p := range h.Peers {
		b = appendString(b, p)
	}
	b = le.AppendUint64(b, h.Session)
	b = appendInt(b, h.Cache.MinDegree)
	return appendInt(b, h.Replicas)
}

func (c *cursor) hello(h *fabric.Hello) {
	h.Role = c.str()
	h.Shards, h.Shard, h.RangeSize = c.int(), c.int(), c.int()
	h.NumVertices = c.int()
	fl := c.flags(helloFloatBias | helloCacheOff | helloAdaptive | helloInstrument)
	h.Sampler.FloatBias, h.Cache.Off = fl&helloFloatBias != 0, fl&helloCacheOff != 0
	h.Sampler.Adaptive, h.Sampler.Instrument = fl&helloAdaptive != 0, fl&helloInstrument != 0
	h.Sampler.RadixBits = c.int()
	h.Sampler.AlphaPct, h.Sampler.BetaPct, h.Sampler.Lambda = c.f64(), c.f64(), c.f64()
	h.Sampler.IndexThreshold, h.Sampler.Workers = c.int(), c.int()
	if n := c.count(4); n > 0 {
		h.Peers = make([]string, n)
		for i := range h.Peers {
			h.Peers[i] = c.str()
		}
	}
	h.Session = c.u64()
	h.Cache.MinDegree = c.int()
	h.Replicas = c.int()
}

func appendBroadcast(b []byte, bc *fabric.Broadcast) []byte {
	b = le.AppendUint64(b, bc.Seq)
	b = le.AppendUint64(b, bc.Epoch)
	b = le.AppendUint64(b, bc.DeadMask)
	b = appendInt(b, bc.RangeSize)
	b = appendInt(b, bc.Replicas)
	b = appendInt(b, bc.Vertices)
	b = appendCol64(b, bc.Watermarks)
	return appendI64(b, bc.Applied)
}

func (c *cursor) broadcast(bc *fabric.Broadcast) {
	bc.Seq, bc.Epoch, bc.DeadMask = c.u64(), c.u64(), c.u64()
	bc.RangeSize, bc.Replicas, bc.Vertices = c.int(), c.int(), c.int()
	bc.Watermarks = col64[int64](c)
	bc.Applied = c.i64()
}
