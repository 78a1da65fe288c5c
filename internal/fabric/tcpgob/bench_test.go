package tcpgob

import (
	"bytes"
	"net"
	"testing"

	"github.com/bingo-rw/bingo/internal/fabric"
)

// memConn is a single-goroutine loopback: what a link writes to it, the
// same link reads back. It lets the benchmarks and the allocation budget
// run the real send and receive paths (writer lock, per-link buffers,
// length header, counters) without sockets or a second goroutine.
type memConn struct {
	net.Conn
	bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.Buffer.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.Buffer.Write(p) }

var benchFrames = []struct {
	name string
	f    frame
}{
	{"walker", frame{kind: kWalker, walker: midFlightWalker()}},
	{"walker_batch16", frame{kind: kWalkerBatch, walkers: walkerBatch(16)}},
	{"updates256", frame{kind: kUpdates, ingest: &fabric.Ingest{Ups: updateBatch(256, false), Watermarks: []int64{1 << 20, 1 << 21}}}},
	{"barrier_ack", frame{kind: kAck, ack: &fabric.Ack{
		Shard: 1, Seq: 9, Updates: 1 << 20, Vertices: 144_000, Steps: 1 << 24,
		Cache: fabric.CacheTallies{LocalHits: 1 << 20, RemoteHits: 1 << 10, ViewRequests: 40, ViewsServed: 39},
	}}},
	{"view_rep_deg1k", frame{kind: kViewRep, viewRep: &fabric.ViewReply{From: 1, Vertex: 7, Hub: true, Applied: 5, View: hubView(1024)}}},
}

var sinkFrame frame

// BenchmarkFrameRoundTrip sends one frame through link.write and takes it
// back through link.read; MB/s is wire bytes (header included).
func BenchmarkFrameRoundTrip(b *testing.B) {
	for _, bf := range benchFrames {
		b.Run(bf.name, func(b *testing.B) {
			l := newLink(&memConn{})
			b.SetBytes(int64(len(appendFrame(nil, &bf.f))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.write(&bf.f); err != nil {
					b.Fatal(err)
				}
				f, err := l.read()
				if err != nil {
					b.Fatal(err)
				}
				sinkFrame = f
			}
		})
	}
}

// TestWalkerFrameAllocBudget pins what a walker hop costs the allocator:
// the decoded struct and its Path, plus nothing per frame on the send
// side. A codec that regresses to reflection (gob spent 1 315 allocations
// on this frame) fails here, in tier-1, not only in the benchmark.
func TestWalkerFrameAllocBudget(t *testing.T) {
	l := newLink(&memConn{})
	w := midFlightWalker()
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.write(&frame{kind: kWalker, walker: w}); err != nil {
			t.Fatal(err)
		}
		f, err := l.read()
		if err != nil || f.walker.ID != w.ID {
			t.Fatalf("read: %+v, %v", f.walker, err)
		}
	})
	t.Logf("walker frame write+read: %.0f allocs", allocs)
	if !raceDetectorEnabled && allocs > 3 {
		t.Fatalf("walker frame write+read costs %.0f allocs, budget 3", allocs)
	}
}
