package bench

import (
	"fmt"
	"sort"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric/tcpgob"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/remote"
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
// isolates wire cost without fork/exec noise. The daemons build with the
// source's Config, its -workers included.
func newShardedService(o *Options, g *graph.CSR, transport string, shards, crew int, cfg walk.ShardedLiveConfig) (*walk.ShardedLiveService, error) {
	src, err := core.NewFromCSR(g, o.bingoConfig())
	if err != nil {
		return nil, err
	}
	switch transport {
	case "inproc":
		return walk.ServeSharded(src, shards, 1, func(s *core.Sampler) walk.LiveEngine {
			return concurrent.Wrap(s, concurrent.Config{})
		}, cfg)
	case "tcp":
		addrs := make([]string, shards)
		for i := range addrs {
			l, err := tcpgob.Listen("127.0.0.1:0", i, shards)
			if err != nil {
				return nil, err
			}
			addrs[i] = l.Addr().String()
			go func() {
				defer l.Close()
				if sc, hello, err := l.Accept(); err == nil {
					remote.Serve(sc, hello, i, crew)
				}
			}()
		}
		return remote.Open(addrs, src, 1, src.Config(), cfg)
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
}
