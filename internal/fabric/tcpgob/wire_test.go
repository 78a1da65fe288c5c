// Wire-format coverage for the shard fabric: every message class must
// round-trip through a length-prefixed binary frame unchanged — including
// float-bias updates and vertex IDs far beyond any construction-time
// space. The PR-2 bug class (state frozen to the initial vertex space)
// must not reappear at the wire boundary, so growth-path IDs up to the
// top of the uint32 range appear in every payload that carries vertices.
package tcpgob

import (
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// roundTrip pushes one frame through a link pair over an in-memory pipe.
func roundTrip(t *testing.T, f *frame) frame {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	l1, l2 := newLink(c1), newLink(c2)
	errc := make(chan error, 1)
	go func() { errc <- l1.write(f) }()
	got, err := l2.read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	return got
}

func TestWalkerFrameRoundTrip(t *testing.T) {
	// A walker mid-flight on the growth path: IDs near the top of the
	// uint32 space, a live RNG stream, accumulated telemetry.
	w := *midFlightWalker()
	got := roundTrip(t, &frame{kind: kWalker, walker: &w})
	if got.kind != kWalker || !reflect.DeepEqual(*got.walker, w) {
		t.Fatalf("walker round-trip: got %+v, want %+v", got.walker, w)
	}
	// The resumed stream must continue draw-for-draw.
	want := xrand.FromState(w.Rng).Uint64()
	if have := xrand.FromState(got.walker.Rng).Uint64(); have != want {
		t.Fatalf("RNG stream diverged across the wire: %d vs %d", have, want)
	}
}

func TestWalkerRecordSurvivesEmptyPath(t *testing.T) {
	// The codec decodes an empty path as nil; the Record *flag* is what
	// keeps a visit-counting bulk walker recording after its first hand-off.
	w := fabric.Walker{ID: 1, Cur: 5, Left: 3, Record: true, Path: []graph.VertexID{}}
	got := roundTrip(t, &frame{kind: kWalker, walker: &w})
	if !got.walker.Record {
		t.Fatal("Record flag lost on a walker with an empty path")
	}
}

func TestUpdateBatchFrameRoundTrip(t *testing.T) {
	// Float-bias updates and growth-path IDs in one routed sub-batch.
	ups := []graph.Update{
		{Op: graph.OpInsert, Src: 0, Dst: 1, Bias: 1},
		{Op: graph.OpInsert, Src: 2_100_000_000, Dst: 4_294_967_295, Bias: 7, FBias: 0.625},
		{Op: graph.OpDelete, Src: 3_999_999_999, Dst: 12},
		{Op: graph.OpInsert, Src: 5, Dst: 6, Bias: 1 << 62, FBias: 0.001953125},
	}
	in := fabric.Ingest{Ups: ups, Watermarks: []int64{12, 0, 4_000_000_000_000}}
	got := roundTrip(t, &frame{kind: kUpdates, ingest: &in})
	if got.kind != kUpdates || !reflect.DeepEqual(*got.ingest, in) {
		t.Fatalf("update batch round-trip: got %+v, want %+v", got.ingest, in)
	}
}

func TestBarrierAndAckFrameRoundTrip(t *testing.T) {
	in := fabric.Ingest{Barrier: 42, Dump: true, Watermarks: []int64{7, 9}}
	got := roundTrip(t, &frame{kind: kBarrier, ingest: &in})
	if got.kind != kBarrier || !reflect.DeepEqual(*got.ingest, in) {
		t.Fatalf("barrier round-trip: got %+v, want %+v", got.ingest, in)
	}

	a := fabric.Ack{
		Shard:    3,
		Seq:      42,
		Updates:  10_000,
		Dropped:  2,
		Err:      "walk: zero bias",
		Vertices: 4_000_000_001, // a grown space, reported back
		Edges: []graph.Edge{
			{Src: 1, Dst: 4_294_967_294, Bias: 9},
			{Src: 2_500_000_000, Dst: 3, Bias: 1, FBias: 0.25},
		},
		Cache: fabric.CacheTallies{LocalHits: 100, RemoteHits: 7, ViewRequests: 3},
	}
	gotA := roundTrip(t, &frame{kind: kAck, ack: &a})
	if gotA.kind != kAck || !reflect.DeepEqual(*gotA.ack, a) {
		t.Fatalf("ack round-trip: got %+v, want %+v", gotA.ack, a)
	}
}

func TestHelloFrameRoundTrip(t *testing.T) {
	h := fabric.Hello{
		Shards: 4, Shard: 2, RangeSize: 1009, NumVertices: 4036,
		Sampler: core.Config{RadixBits: 2, Adaptive: true, AlphaPct: 40, BetaPct: 10, FloatBias: true, Lambda: 2048},
		Peers:   []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"},
		Session: 0xDEADBEEFCAFE,
		Cache:   fabric.CacheSpec{MinDegree: 4},
	}
	got := roundTrip(t, &frame{kind: kHelloCoord, hello: &h})
	if got.kind != kHelloCoord || !reflect.DeepEqual(*got.hello, h) {
		t.Fatalf("hello round-trip: got %+v, want %+v", got.hello, h)
	}
}

// TestWalkerBatchFrameRoundTrip pins the coalesced hand-off frame: the
// batch decodes walker-for-walker, RNG streams intact.
func TestWalkerBatchFrameRoundTrip(t *testing.T) {
	ws := walkerBatch(5)
	got := roundTrip(t, &frame{kind: kWalkerBatch, walkers: ws})
	if got.kind != kWalkerBatch || !reflect.DeepEqual(got.walkers, ws) {
		t.Fatalf("walker batch round-trip: got %+v, want %+v", got.walkers, ws)
	}
}

// TestViewFrameRoundTrip pins the hub-view request/reply frames,
// including a full VertexView payload with dense and list groups.
func TestViewFrameRoundTrip(t *testing.T) {
	rq := fabric.ViewRequest{From: 3, Vertex: 4_123_456_789}
	gotRq := roundTrip(t, &frame{kind: kViewReq, viewReq: &rq})
	if gotRq.kind != kViewReq || !reflect.DeepEqual(*gotRq.viewReq, rq) {
		t.Fatalf("view request round-trip: got %+v, want %+v", gotRq.viewReq, rq)
	}

	rp := fabric.ViewReply{
		From: 1, Vertex: 4_123_456_789, Hub: true, Applied: 987654,
		View: core.VertexView{
			Vertex:    4_123_456_789,
			Epoch:     44,
			Applied:   987654,
			RadixBits: 3,
			Dsts:      []graph.VertexID{5, 4_294_967_295, 9},
			Bias:      []uint64{3, 1 << 40, 7},
			Rem:       []float32{0, 0.25, 0.5},
			Groups: []core.ViewGroup{
				{GID: 2, Kind: core.KindRegular, Count: 2, One: -1, List: []int32{0, 2}},
				{GID: 9, Kind: core.KindOne, Count: 1, One: 1},
			},
			Cum:     []float64{12, 14, 14.75},
			Dec:     true,
			DecList: []int32{1, 2},
			DecSum:  0.75,
		},
	}
	gotRp := roundTrip(t, &frame{kind: kViewRep, viewRep: &rp})
	if gotRp.kind != kViewRep || !reflect.DeepEqual(*gotRp.viewRep, rp) {
		t.Fatalf("view reply round-trip: got %+v, want %+v", gotRp.viewRep, rp)
	}
}

// TestLoopbackFabricSession exercises the transport end to end over real
// loopback sockets, beneath the walk layer: session hello, routed
// publish + barrier + ack, a walker launched on shard 0, transferred
// peer-to-peer to shard 1, retired to the coordinator, then shutdown.
func TestLoopbackFabricSession(t *testing.T) {
	l0, err := Listen("127.0.0.1:0", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	l1, err := Listen("127.0.0.1:0", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	addrs := []string{l0.Addr().String(), l1.Addr().String()}

	coord, err := Dial(addrs, fabric.Hello{RangeSize: 100, NumVertices: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	sessions := make([]*ShardConn, 2)
	for i, l := range []*Listener{l0, l1} {
		sc, h, err := l.Accept()
		if err != nil {
			t.Fatalf("shard %d accept: %v", i, err)
		}
		if h.Shard != i || h.Shards != 2 || h.RangeSize != 100 || len(h.Peers) != 2 || h.Session == 0 {
			t.Fatalf("shard %d hello %+v", i, h)
		}
		sessions[i] = sc
	}
	s0, s1 := sessions[0], sessions[1]

	// Shard node stand-ins: echo barriers as acks, forward every walker
	// once (0 → 1), retire it at shard 1.
	done := make(chan struct{})
	go func() {
		defer close(done)
		in, ok := s0.NextIngest()
		if !ok || len(in.Ups) != 2 || in.Ups[1].Src != 4_000_000_000 {
			t.Errorf("shard 0 ingest: ok=%v %+v", ok, in)
			return
		}
		bar, ok := s0.NextIngest()
		if !ok || bar.Barrier != 7 {
			t.Errorf("shard 0 barrier: ok=%v %+v", ok, bar)
			return
		}
		s0.Ack(&fabric.Ack{Shard: 0, Seq: bar.Barrier, Updates: 2})
		wk, ok := s0.NextWalker()
		if !ok {
			t.Error("shard 0: no walker")
			return
		}
		wk.Cur, wk.Transfers = 150, 1
		if err := s0.ForwardWalker(1, wk); err != nil {
			t.Errorf("forward: %v", err)
		}
	}()
	go func() {
		bar, ok := s1.NextIngest()
		if !ok || bar.Barrier != 7 {
			t.Errorf("shard 1 barrier: ok=%v %+v", ok, bar)
			return
		}
		s1.Ack(&fabric.Ack{Shard: 1, Seq: bar.Barrier})
		wk, ok := s1.NextWalker()
		if !ok || wk.Cur != 150 || wk.Transfers != 1 {
			t.Errorf("shard 1 walker: ok=%v %+v", ok, wk)
			return
		}
		wk.Steps = 5
		s1.Retire(wk)
	}()

	if err := coord.PublishUpdates(0, fabric.Ingest{Ups: []graph.Update{
		{Op: graph.OpInsert, Src: 1, Dst: 2, Bias: 3},
		{Op: graph.OpInsert, Src: 4_000_000_000, Dst: 5, Bias: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := coord.PublishBarrier(fabric.Ingest{Barrier: 7}); err != nil {
		t.Fatal(err)
	}
	if err := coord.LaunchWalker(0, &fabric.Walker{ID: 11, Cur: 10, Left: 5}); err != nil {
		t.Fatal(err)
	}

	acks, retires := 0, 0
	for acks < 2 || retires < 1 {
		ev, ok := coord.NextEvent()
		if !ok {
			t.Fatalf("event stream ended early (acks %d, retires %d)", acks, retires)
		}
		switch ev.Kind {
		case fabric.EvAck:
			if ev.Ack.Seq != 7 {
				t.Fatalf("ack %+v", ev.Ack)
			}
			acks++
		case fabric.EvRetire:
			if ev.Walker.ID != 11 || ev.Walker.Steps != 5 {
				t.Fatalf("retire %+v", ev.Walker)
			}
			retires++
		}
	}
	<-done

	// Shutdown: the daemons' streams end, they close, the event stream
	// follows.
	coord.Close()
	for i, s := range []*ShardConn{s0, s1} {
		if _, ok := s.NextWalker(); ok {
			t.Fatalf("shard %d walker stream still open after shutdown", i)
		}
		if _, ok := s.NextIngest(); ok {
			t.Fatalf("shard %d ingest stream still open after shutdown", i)
		}
		s.Close()
	}
	deadline := time.After(10 * time.Second)
	for {
		ev, ok := coord.NextEvent()
		if !ok {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("event stream did not close after shutdown (stuck on %+v)", ev)
		default:
		}
	}
}

// TestBootBatchKeepsLinkBuffers pins the bootstrap stream's frame size: a
// full float-bias boot batch encodes within bufChunk, so a link keeps its
// encode and read buffers across boot frames instead of allocating both
// afresh for every batch.
func TestBootBatchKeepsLinkBuffers(t *testing.T) {
	f := frame{kind: kUpdates, ingest: &fabric.Ingest{
		Ups: updateBatch(fabric.BootstrapChunk, true), Boot: true, Watermarks: make([]int64, 64),
	}}
	if n := len(appendFrame(nil, &f)); n > bufChunk {
		t.Fatalf("a full boot batch encodes to %d bytes, above the %d a link keeps", n, bufChunk)
	}
	l := newLink(&memConn{})
	var wbuf, rbuf *byte
	for i := 0; i < 2; i++ {
		if err := l.write(&f); err != nil {
			t.Fatal(err)
		}
		if got, err := l.read(); err != nil || len(got.ingest.Ups) != fabric.BootstrapChunk {
			t.Fatalf("read: %v", err)
		}
		if cap(l.wbuf) == 0 || cap(l.rbuf) == 0 {
			t.Fatalf("frame %d: the link dropped a buffer (wbuf cap %d, rbuf cap %d)", i, cap(l.wbuf), cap(l.rbuf))
		}
		if i == 1 && (&l.wbuf[:1][0] != wbuf || &l.rbuf[:1][0] != rbuf) {
			t.Fatal("the second boot frame reallocated the link's buffers")
		}
		wbuf, rbuf = &l.wbuf[:1][0], &l.rbuf[:1][0]
	}
}
