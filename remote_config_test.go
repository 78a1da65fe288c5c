package bingo

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/remote"
)

// TestServeRemoteCarriesSamplerConfig pins config parity across the
// process boundary: a shard daemon's session engine, built from the
// Hello by the daemon side ServeShard runs (remote.Serve, whose engine is
// remote.Sampler), must factorize with the coordinator
// engine's Config — radix width, adaptivity, thresholds, index threshold —
// and its calibrated λ, not with core.DefaultConfig. (Workers travels as
// 0 and resolves to each process's GOMAXPROCS, which here is the
// coordinator's too.)
func TestServeRemoteCarriesSamplerConfig(t *testing.T) {
	// A 3000-degree float hub calibrates λ to 4096, above the 1024 an
	// uncalibrated engine picks.
	var edges []Edge
	for i := 1; i <= 3000; i++ {
		edges = append(edges, Edge{Src: 0, Dst: VertexID(i), Weight: 0.25 + float64(i%7)})
	}
	eng, err := FromEdges(edges, WithFloatWeights(0), WithRadixBits(4), WithThresholds(30, 5))
	if err != nil {
		t.Fatal(err)
	}
	if eng.s.Lambda() != 4096 {
		t.Fatalf("source λ = %v, want 4096", eng.s.Lambda())
	}
	const shards = 2
	addrs := make([]string, shards)
	done := make(chan error, shards) // one send per daemon
	for i := 0; i < shards; i++ {
		l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		go func() {
			defer l.Close()
			sc, hello, err := l.Accept()
			if err != nil {
				done <- err
				return
			}
			if s, err := remote.Sampler(hello); err != nil {
				t.Errorf("daemon %d: %v", i, err)
			} else if s.Config() != eng.s.Config() || s.Lambda() != eng.s.Lambda() {
				t.Errorf("daemon %d: config %+v λ %v, coordinator engine %+v λ %v", i, s.Config(), s.Lambda(), eng.s.Config(), eng.s.Lambda())
			}
			_, err = remote.Serve(sc, hello, i, 1)
			done <- err
		}()
	}
	rw, err := eng.ServeRemote(addrs, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Query(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		if err := <-done; err != nil {
			t.Errorf("daemon: %v", err)
		}
	}
}
