package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/bingo-rw/bingo"
)

// counters is the part of a serving tier's Stats() the benchmark reads,
// in one shape for all three tiers.
type counters struct {
	queries, steps, updates, dropped int64
	transfers                        int64
	localHits, localStale            int64
	remoteHits, remoteStale          int64
	maxOutstanding                   int64
	stalled                          time.Duration
}

// served is a running serving tier behind the operations every tier has.
// All options are the tier's defaults, so a changed default shows up here.
type served struct {
	query func(start bingo.VertexID, length int) ([]bingo.VertexID, error)
	feed  func([]bingo.Update) error
	// sync returns once everything fed so far is visible to queries.
	sync  func() error
	stats func() counters
	close func() error

	bytesPerEdge float64 // of the engine the tier was bootstrapped from
}

func bytesPerEdge(eng *bingo.Engine) float64 {
	return float64(eng.Memory()) / float64(eng.NumEdges())
}

// openLive is Engine.Concurrent().Serve(LiveOptions{}). LiveWalker has no
// Sync, so the barrier is what a caller of the public API would write: poll
// Stats until every fed batch is accounted for. Feed and sync are called
// from one goroutine.
func openLive(in *inputs) (*served, error) {
	eng, err := in.newEngine()
	if err != nil {
		return nil, err
	}
	bpe := bytesPerEdge(eng)
	lw := eng.Concurrent().Serve(bingo.LiveOptions{})
	var fed int64
	return &served{
		query: lw.Query,
		feed: func(ups []bingo.Update) error {
			fed++
			return lw.Feed(ups)
		},
		sync: func() error {
			for {
				if st := lw.Stats(); st.Batches+st.Dropped >= fed {
					return nil
				}
				runtime.Gosched()
			}
		},
		stats: func() counters {
			st := lw.Stats()
			return counters{
				queries: st.Queries, steps: st.Steps, updates: st.Updates, dropped: st.Dropped,
				localHits: st.CacheHits, localStale: st.CacheStale,
			}
		},
		close:        lw.Close,
		bytesPerEdge: bpe,
	}, nil
}

func shardedCounters(st bingo.ShardedLiveStats) counters {
	return counters{
		queries: st.Queries, steps: st.Steps, updates: st.Updates, dropped: st.Dropped,
		transfers: st.Transfers,
		localHits: st.Cache.LocalHits, localStale: st.Cache.LocalStale,
		remoteHits: st.Cache.RemoteHits, remoteStale: st.Cache.RemoteStale,
		maxOutstanding: st.Backpressure.MaxOutstanding, stalled: st.Backpressure.Stalled,
	}
}

// openSharded is Engine.ServeSharded(shards, ShardedOptions{}).
func openSharded(shards int) func(*inputs) (*served, error) {
	return func(in *inputs) (*served, error) {
		eng, err := in.newEngine()
		if err != nil {
			return nil, err
		}
		sw, err := eng.ServeSharded(shards, bingo.ShardedOptions{})
		if err != nil {
			return nil, err
		}
		return &served{
			query: sw.Query, feed: sw.Feed, sync: sw.Sync,
			stats:        func() counters { return shardedCounters(sw.Stats()) },
			close:        sw.Close,
			bytesPerEdge: bytesPerEdge(eng),
		}, nil
	}
}

// openTCP is the same two shards as daemons behind loopback tcpgob: two
// bingo.ServeShard goroutines in this process and Engine.ServeRemote as
// their coordinator. close ends the session and waits for both daemons.
func openTCP(in *inputs) (*served, error) {
	const shards = 2
	eng, err := in.newEngine()
	if err != nil {
		return nil, err
	}
	type listening struct {
		shard int
		addr  string
	}
	up := make(chan listening, shards) // one send per daemon
	done := make(chan error, shards)   // one send per daemon
	for i := 0; i < shards; i++ {
		go func(i int) {
			_, err := bingo.ServeShard("127.0.0.1:0", i, shards, bingo.ShardServeOptions{
				Walkers:  1,
				OnListen: func(addr string) { up <- listening{i, addr} },
			})
			done <- err
		}(i)
	}
	addrs := make([]string, shards)
	for n := 0; n < shards; n++ {
		select {
		case l := <-up:
			addrs[l.shard] = l.addr
		case err := <-done:
			// The daemons that did come up wait for a coordinator for ever;
			// the process is about to exit with this error.
			return nil, fmt.Errorf("shard daemon: %w", err)
		}
	}
	rw, err := eng.ServeRemote(addrs, bingo.RemoteOptions{})
	if err != nil {
		return nil, err
	}
	return &served{
		query: rw.Query, feed: rw.Feed, sync: rw.Sync,
		stats: func() counters { return shardedCounters(rw.Stats()) },
		close: func() error {
			err := rw.Close()
			for n := 0; n < shards; n++ {
				err = errors.Join(err, <-done)
			}
			return err
		},
		bytesPerEdge: bytesPerEdge(eng),
	}, nil
}
