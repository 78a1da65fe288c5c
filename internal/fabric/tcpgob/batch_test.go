package tcpgob

import (
	"runtime"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/fabric"
)

// TestTransferBatching pins the coalescing satellite: a burst of walker
// hand-offs toward one peer must arrive complete and intact while
// traveling in (far) fewer frames than walkers — the per-frame cost
// (header, writer lock, syscall) is amortized across whatever queued
// behind the wire. It also covers view traffic interleaved with the
// walker stream on the same ordered sender.
func TestTransferBatching(t *testing.T) {
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

	coord, err := Dial(addrs, fabric.Hello{RangeSize: 10, NumVertices: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	s0, _, err := l0.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := l1.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	defer s1.Close()

	const walkers = 5000
	for i := 0; i < walkers; i++ {
		w := &fabric.Walker{ID: uint64(i + 1), Cur: 7, Left: 3, Steps: int64(i)}
		if err := s0.ForwardWalker(1, w); err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		if i == walkers/2 {
			// A view request mid-burst rides the same ordered sender.
			if err := s0.RequestView(1, &fabric.ViewRequest{From: 0, Vertex: 7}); err != nil {
				t.Fatalf("view request: %v", err)
			}
		}
	}

	seen := make([]bool, walkers+1)
	for n := 0; n < walkers; n++ {
		w, ok := s1.NextWalker()
		if !ok {
			t.Fatalf("walker stream ended after %d of %d", n, walkers)
		}
		if w.ID == 0 || w.ID > walkers || seen[w.ID] {
			t.Fatalf("bad or duplicate walker %+v", w)
		}
		if w.Cur != 7 || w.Left != 3 || w.Steps != int64(w.ID-1) {
			t.Fatalf("walker %d corrupted in batch: %+v", w.ID, w)
		}
		seen[w.ID] = true
	}
	m, ok := s1.NextView()
	if !ok || m.Req == nil || m.Req.Vertex != 7 || m.Req.From != 0 {
		t.Fatalf("view request lost in the batched stream: ok=%v %+v", ok, m)
	}

	// The sender accounts a frame once its write returns, which can be
	// after the receiver has already decoded it: wait for the count.
	accounted := time.Now().Add(10 * time.Second)
	for s0.transferWalkers.Load() < walkers && time.Now().Before(accounted) {
		runtime.Gosched()
	}
	frames := s0.transferFrames.Load()
	sent := s0.transferWalkers.Load()
	if sent != walkers {
		t.Fatalf("sender accounted %d walkers, want %d", sent, walkers)
	}
	if frames >= walkers/2 {
		t.Fatalf("%d frames for %d walkers — hand-offs are not coalescing", frames, walkers)
	}
	t.Logf("%d walkers in %d frames (%.1f walkers/frame)", walkers, frames, float64(walkers)/float64(frames))

	// Teardown still drains cleanly with the senders in play.
	coord.Close()
	deadline := time.After(10 * time.Second)
	for {
		if _, ok := s0.NextWalker(); !ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("shard 0 walker stream did not close after shutdown")
		default:
		}
	}
}
