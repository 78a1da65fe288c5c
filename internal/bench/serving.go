package bench

import (
	"fmt"
	"sort"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
)

// shardedHubFraction is the top-degree share forming the hub start set.
const shardedHubFraction = 0.01

// hubStarts returns the top-degree hub set (at least 8 vertices, at most
// the top shardedHubFraction) the corpus scenario churns and queries.
func hubStarts(g *graph.CSR) []graph.VertexID {
	n := g.NumVertices()
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	sort.Slice(ids, func(i, j int) bool { return g.Degree(ids[i]) > g.Degree(ids[j]) })
	k := int(float64(n) * shardedHubFraction)
	if k < 8 {
		k = 8
	}
	if k > n {
		k = n
	}
	return ids[:k]
}

// newShardedService builds a bootstrapped serving runtime for one cell on
// the chosen transport. For tcp, the shard nodes run in-process but
// behind real loopback sockets — the same frames, handshake, and
// per-peer streams `bingowalk -shard-serve` daemons speak — so the cell
// isolates wire cost without fork/exec noise.
func newShardedService(o *Options, g *graph.CSR, transport string, cache fabric.CacheSpec, shards, crew int, cfg walk.ShardedLiveConfig) (*walk.ShardedLiveService, error) {
	switch transport {
	case "inproc":
		src, err := core.NewFromCSR(g, o.bingoConfig())
		if err != nil {
			return nil, err
		}
		return walk.ServeSharded(src, shards, 1, func(s *core.Sampler) walk.LiveEngine {
			return concurrent.Wrap(s, concurrent.Config{})
		}, cfg)
	case "tcp":
		src, err := core.NewFromCSR(g, o.bingoConfig())
		if err != nil {
			return nil, err
		}
		plan := walk.NewShardPlan(g.NumVertices(), shards)
		listeners := make([]*tcpgob.Listener, shards)
		addrs := make([]string, shards)
		for i := 0; i < shards; i++ {
			l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
			if err != nil {
				return nil, err
			}
			listeners[i] = l
			addrs[i] = l.Addr().String()
		}
		for i := 0; i < shards; i++ {
			go func(i int) {
				defer listeners[i].Close()
				sc, hello, err := listeners[i].Accept()
				if err != nil {
					return
				}
				s, err := core.New(hello.NumVertices, hello.Sampler)
				if err != nil {
					sc.Close()
					return
				}
				walk.RunShardNode(concurrent.Wrap(s, concurrent.Config{}), walk.PlanFromHello(hello), i, sc, crew, hello.Cache)
			}(i)
		}
		port, err := tcpgob.Dial(addrs, fabric.Hello{
			RangeSize:   plan.RangeSize,
			NumVertices: g.NumVertices(),
			Sampler:     src.Config(),
			Cache:       cache,
		})
		if err != nil {
			return nil, err
		}
		attach := func() (fabric.ReadPort, error) { return tcpgob.DialReader(addrs, fabric.Hello{}) }
		return walk.ServeShardedOver(port, attach, src, plan, cfg)
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
}
