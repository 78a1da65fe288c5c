// Regression tests for the transport's connection-robustness paths: the
// bounded dial retry (a daemon started after the coordinator dials must
// be found, not fatal) and the accept loop's tolerance of clients that
// never speak the protocol.
package tcpgob

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
)

// awaitHangup blocks until the daemon has dropped conn (EOF, or a reset
// when it closed with junk still unread) — the proof that it looked at
// whatever the client sent and refused it.
func awaitHangup(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("daemon never dropped the garbage connection: %v", err)
		}
	}
}

// openSession requires the listener to still admit a legitimate
// coordinator.
func openSession(t *testing.T, l *Listener) {
	t.Helper()
	accepted := make(chan *ShardConn, 1)
	go func() {
		sc, _, err := l.Accept()
		if err != nil {
			t.Errorf("Accept after garbage clients: %v", err)
			close(accepted)
			return
		}
		accepted <- sc
	}()
	coord, err := Dial([]string{l.Addr().String()}, fabric.Hello{RangeSize: 16, NumVertices: 64})
	if err != nil {
		t.Fatalf("Dial after garbage clients: %v", err)
	}
	select {
	case sc, ok := <-accepted:
		if !ok {
			t.Fatal("daemon side failed")
		}
		sc.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("accept loop never surfaced the legitimate session")
	}
	coord.Close()
}

// TestDialFindsLateDaemon starts the daemon listener ~300ms after the
// coordinator begins dialing. The bare net.Dial this replaced failed
// instantly on the refused connect and killed the session; the retrying
// dial must ride its backoff into the live listener and open the session
// normally.
func TestDialFindsLateDaemon(t *testing.T) {
	// Reserve a port, then release it so the daemon can bind it late.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	accepted := make(chan *ShardConn, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		l, err := Listen(addr, 0, 1)
		if err != nil {
			t.Errorf("late Listen: %v", err)
			close(accepted)
			return
		}
		defer l.Close()
		sc, h, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			close(accepted)
			return
		}
		if h.NumVertices != 64 {
			t.Errorf("hello %+v reached the late daemon corrupted", h)
		}
		accepted <- sc
	}()

	coord, err := Dial([]string{addr}, fabric.Hello{RangeSize: 16, NumVertices: 64})
	if err != nil {
		t.Fatalf("Dial against a late daemon: %v", err)
	}
	sc, ok := <-accepted
	if !ok {
		t.Fatal("daemon side failed")
	}
	coord.Close()
	sc.Close()
}

// TestAcceptLoopSurvivesGarbageClients throws protocol garbage at a
// daemon's listener — a silent half-close, an oversized frame length,
// junk bytes, a peer hello with the wrong wire version — waits for the
// daemon to hang up on each, and then requires a legitimate session to
// still open. Before the accept loop hardened, a single bad first frame
// could wedge or kill the daemon's accept path.
func TestAcceptLoopSurvivesGarbageClients(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()

	for _, junk := range [][]byte{
		nil, // connect, say nothing, half-close
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // absurd frame length
		[]byte("GET / HTTP/1.1\r\n\r\n"),                 // wrong protocol entirely
		{2, 0, 0, 0, kHelloPeer, wireVersion + 1},        // a peer from another build
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("garbage client connect: %v", err)
		}
		conn.Write(junk)
		conn.(*net.TCPConn).CloseWrite()
		awaitHangup(t, conn)
		conn.Close()
	}
	openSession(t, l)
}

// TestOversizedHeaderCostsNothing is the regression for the
// unauthenticated allocation: a client whose first four bytes claim a
// frame just under the 1 GiB cap, and who then stalls, used to make the
// daemon allocate the whole claim before reading a byte of it. The
// pre-handshake bound must refuse the header outright, count it, and
// leave the daemon serving.
func TestOversizedHeaderCostsNothing(t *testing.T) {
	l, err := Listen("127.0.0.1:0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refused := decodeErrors.Load()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(le.AppendUint32(nil, 0x3FFFFFFF)); err != nil {
		t.Fatal(err)
	}
	// Stall: no body, no close. The daemon must hang up on its own.
	awaitHangup(t, conn)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("a 4-byte header made the process allocate %d MiB", grew>>20)
	}
	if decodeErrors.Load() == refused {
		t.Fatal("refused frame not counted in bingo_fabric_decode_errors_total")
	}
	openSession(t, l)
}

// TestLargeFrameBufferGrowsAsBytesArrive covers the same claim after the
// handshake, where frames up to maxFrame are legitimate: the read buffer
// follows the bytes that actually arrive, so a torn 1 GiB frame costs
// what was sent, and is counted as torn.
func TestLargeFrameBufferGrowsAsBytesArrive(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		c1.Write(le.AppendUint32(nil, 0x3FFFFFFF))
		c1.Write(make([]byte, 3<<20))
		c1.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	torn := decodeErrors.Load()
	l := newLink(c2)
	if _, err := l.read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: got %v, want %v", err, io.ErrUnexpectedEOF)
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d KiB", grew>>10)
	if grew > 32<<20 {
		t.Fatalf("3 MiB of a claimed 1 GiB frame made the link allocate %d MiB", grew>>20)
	}
	if decodeErrors.Load() == torn {
		t.Fatal("torn frame not counted in bingo_fabric_decode_errors_total")
	}
}

// TestPeerStreamNoticesHangup is the kill -9 shape at the transport: a
// peer daemon dies while nothing is being written toward it. Writing is
// no way to find out — the first write into a connection the far end has
// closed succeeds — so the stream's watcher must mark it dead from the
// hang-up alone; from then on a hand-off toward the corpse is refused (the
// node retires it Failed) instead of vanishing. Shard 1 is a bare TCP
// listener the test can hang up at will.
func TestPeerStreamNoticesHangup(t *testing.T) {
	l0, err := Listen("127.0.0.1:0", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	conns := make(chan net.Conn, 2) // the coordinator's link and shard 0's peer stream
	go func() {
		for {
			c, err := fake.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()

	coord, err := DialWith([]string{l0.Addr().String(), fake.Addr().String()},
		fabric.Hello{RangeSize: 10, NumVertices: 100}, DialConfig{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s0, _, err := l0.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()

	// Open the 0→1 stream and let its hello and first walker arrive.
	if err := s0.ForwardWalker(1, &fabric.Walker{ID: 1, Left: 1}); err != nil {
		t.Fatal(err)
	}
	var peer *link
	for peer == nil {
		lk := newLink(<-conns)
		f, err := lk.read()
		if err != nil {
			t.Fatal(err)
		}
		if f.kind == kHelloPeer {
			peer = lk
		}
	}
	if f, err := peer.read(); err != nil || f.kind != kWalker {
		t.Fatalf("first hand-off: %+v, %v", f, err)
	}

	peer.conn.Close() // shard 1 is gone; shard 0 writes nothing
	p, err := s0.peer(1)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		p.mu.Lock()
		dead := p.dead
		p.mu.Unlock()
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer stream still looks alive 10s after the peer hung up")
		}
	}
	if err := s0.ForwardWalker(1, &fabric.Walker{ID: 2, Left: 1}); err == nil {
		t.Fatal("hand-off toward a dead peer was accepted")
	}
}
