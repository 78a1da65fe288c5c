// Package remote opens the two sides of a multi-process serving session
// over the TCP fabric, each written once: Open is the coordinator side
// (the session Hello, the dial, the reader-attach closure, the row-stream
// bootstrap) and Serve the daemon side (the session engine the Hello
// announces, then the shard node until the coordinator ends the session).
// It sits above both internal/walk and internal/fabric/tcpgob, which do
// not import each other.
package remote

import (
	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/walk"
)

// Open starts a write session over one shard daemon per address: it
// sends every daemon the partition geometry, the sampler Config to build
// with and cfg.Cache, streams src's rows to their owners, and returns once
// a barrier confirms every daemon holds exactly its rows. With replicas >
// 1 every ownership block lives on that many daemons and the session
// survives a daemon's death. src is read during this call; do not mutate
// it concurrently. On failure the session is closed.
func Open(addrs []string, src *core.Sampler, replicas int, sampler core.Config, cfg walk.ShardedLiveConfig) (*walk.ShardedLiveService, error) {
	plan := walk.NewShardPlan(src.NumVertices(), len(addrs))
	if replicas > 1 {
		plan.Replicas = replicas
	}
	port, err := tcpgob.DialWith(addrs, fabric.Hello{
		RangeSize:   plan.RangeSize,
		NumVertices: src.NumVertices(),
		Sampler:     sampler,
		Cache:       cfg.Cache,
		Replicas:    plan.Replicas,
	}, tcpgob.DialConfig{Resilient: plan.Replicas > 1})
	if err != nil {
		return nil, err
	}
	attach := func() (fabric.ReadPort, error) { return tcpgob.DialReader(addrs, fabric.Hello{}) }
	return walk.ServeShardedOver(port, attach, src, plan, cfg)
}

// Sampler builds the empty session sampler a coordinator's Hello
// announces: its vertex space, factorized with the coordinator's Config
// and λ.
func Sampler(hello fabric.Hello) (*core.Sampler, error) {
	return core.New(hello.NumVertices, hello.Sampler)
}

// Serve hosts shard `shard` of the session sc accepted with hello: it
// builds the session engine (Sampler, wrapped for concurrent use) and
// runs the shard node with a crew of walkers until the coordinator ends
// the session, then reports the node's tallies and first ingest error.
func Serve(sc *tcpgob.ShardConn, hello fabric.Hello, shard, walkers int) (walk.ShardNodeStats, error) {
	s, err := Sampler(hello)
	if err != nil {
		sc.Close()
		return walk.ShardNodeStats{}, err
	}
	return walk.RunShardNode(concurrent.Wrap(s, concurrent.Config{}), walk.PlanFromHello(hello), shard, sc, walkers, hello.Cache)
}
