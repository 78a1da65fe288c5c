package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// CorpusMaintenance is the standing-walk-corpus scenario: a corpus of
// K walks per vertex rides a 4-shard live service while a feeder
// streams a hub-churn tape — deletes and reinserts of hub out-edges,
// the worst case for walk validity because hub vertices sit on a large
// share of all standing walks — and a client fleet draws corpus
// slices. The measured quantities are the incremental-maintenance
// economics: resample amplification (suffix steps actually resampled
// per step a full per-update recompute of every affected walk would
// have sampled — the <1 headroom is the scenario's point), refresh lag
// (touch-to-repair latency ceiling), and the serving split under the
// bounded-staleness contract.

// CorpusSeries is one measured (transport, load) grid cell.
type CorpusSeries struct {
	Transport       string
	Shards          int
	ChurnEvents     int64
	Resamples       int64
	ResampledSteps  int64
	FullWalkSteps   int64
	Amplification   float64 // resampled/full-walk-equivalent
	Speedup         float64
	MaxRefreshLagMs int64
	Fallbacks       int64
	QueriesPerSec   float64
}

// corpusShards is the scenario's fixed shard count (the acceptance
// geometry: hub churn crosses shard boundaries, so maintenance exercises
// the fabric, not just one engine).
const corpusShards = 4

// corpusWalksPerVertex is K for the measured corpus.
const corpusWalksPerVertex = 2

// corpusMinWindow is the minimum measurement window: clients keep
// drawing corpus slices past the end of the churn tape until it elapses.
const corpusMinWindow = 250 * time.Millisecond

// hubChurnTape builds a delete/reinsert churn stream over the hub
// vertices' existing out-edges: event 2i deletes a hub edge, event 2i+1
// restores it. Every event lands on a vertex that a large share of
// standing walks pass through — maximum per-event walk invalidation,
// minimum net graph drift (the graph keeps its shape, so the corpus
// keeps resampling rather than decaying into dead ends).
func hubChurnTape(g *graph.CSR, hubs []graph.VertexID, n int, seed uint64) []graph.Update {
	r := xrand.New(seed ^ 0xc0b9)
	ups := make([]graph.Update, 0, n)
	for len(ups) < n {
		h := hubs[r.Intn(len(hubs))]
		deg := g.Degree(h)
		if deg == 0 {
			continue
		}
		i := r.Intn(deg)
		dst := g.Neighbors(h)[i]
		bias := g.Biases(h)[i]
		ups = append(ups,
			graph.Update{Op: graph.OpDelete, Src: h, Dst: dst},
			graph.Update{Op: graph.OpInsert, Src: h, Dst: dst, Bias: bias},
		)
	}
	return ups[:n]
}

func runCorpus(o *Options) error {
	abbr := o.Datasets[0]
	d, g, err := o.dataset(abbr)
	if err != nil {
		return err
	}
	events := o.batchSize(d) * 4
	hubs := hubStarts(g)
	tape := hubChurnTape(g, hubs, events, o.Seed)

	clients := o.Workers
	tbl := newTable(o.Out)
	tbl.row("transport", "shards", "churn", "resamples", "resampled steps", "full-walk steps", "amplification", "speedup", "max lag ms", "queries/s", "fallbacks")
	for _, transport := range o.Transports {
		ser, err := corpusCell(o, g, transport, clients, hubs, tape)
		if err != nil {
			return fmt.Errorf("%s: %w", transport, err)
		}
		tbl.row(
			ser.Transport,
			fmt.Sprintf("%d", ser.Shards),
			fmt.Sprintf("%d", ser.ChurnEvents),
			fmt.Sprintf("%d", ser.Resamples),
			fmt.Sprintf("%d", ser.ResampledSteps),
			fmt.Sprintf("%d", ser.FullWalkSteps),
			fmt.Sprintf("%.4f", ser.Amplification),
			fmt.Sprintf("%.0fx", ser.Speedup),
			fmt.Sprintf("%d", ser.MaxRefreshLagMs),
			fmt.Sprintf("%.0f", ser.QueriesPerSec),
			fmt.Sprintf("%d", ser.Fallbacks),
		)
	}
	tbl.flush()
	return nil
}

// corpusCell measures one transport on fresh engines: grow the corpus,
// stream the full churn tape while clients draw hub walks, drain with a
// final Sync so the tallies cover every event, then snapshot.
func corpusCell(o *Options, g *graph.CSR, transport string, clients int, hubs []graph.VertexID, tape []graph.Update) (CorpusSeries, error) {
	crew := clients / corpusShards
	if crew < 1 {
		crew = 1
	}
	cfg := walk.ShardedLiveConfig{WalkersPerShard: crew, WalkLength: o.WalkLength, Seed: o.Seed}
	svc, err := newShardedService(o, g, transport, corpusShards, crew, cfg)
	if err != nil {
		return CorpusSeries{}, err
	}
	corpus, err := walk.NewShardedCorpusService(svc, g.NumVertices(), walk.CorpusConfig{
		WalksPerVertex: corpusWalksPerVertex,
		WalkLength:     o.WalkLength,
		Seed:           o.Seed,
	})
	if err != nil {
		svc.Close()
		return CorpusSeries{}, err
	}

	start := time.Now()
	var feeder sync.WaitGroup
	feeder.Add(1)
	var feedErr atomic.Value
	go func() {
		defer feeder.Done()
		for lo := 0; lo < len(tape); lo += 256 {
			hi := lo + 256
			if hi > len(tape) {
				hi = len(tape)
			}
			if err := corpus.Feed(append([]graph.Update(nil), tape[lo:hi]...)); err != nil {
				feedErr.Store(err)
				return
			}
		}
	}()

	// Clients draw hub-started corpus slices for as long as the churn
	// streams (plus the minimum window so short tapes still measure a
	// real serving mix).
	done := make(chan struct{})
	go func() { feeder.Wait(); close(done) }()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(o.Seed ^ seed)
			for {
				select {
				case <-done:
					if time.Since(start) >= corpusMinWindow {
						return
					}
				default:
				}
				if _, err := corpus.Query(hubs[r.Intn(len(hubs))], o.WalkLength); err != nil {
					return
				}
			}
		}(uint64(c) + 1)
	}
	wg.Wait()
	feeder.Wait()
	if err, _ := feedErr.Load().(error); err != nil {
		corpus.Close()
		return CorpusSeries{}, fmt.Errorf("feed: %w", err)
	}
	// Final drain: every churn event refreshed into the corpus before the
	// tallies are read, so amplification covers the whole tape.
	if err := corpus.Sync(); err != nil {
		corpus.Close()
		return CorpusSeries{}, fmt.Errorf("sync: %w", err)
	}
	elapsed := time.Since(start)
	cs := corpus.Stats()
	if err := corpus.Close(); err != nil {
		return CorpusSeries{}, fmt.Errorf("close: %w", err)
	}

	amp := 0.0
	speedup := 0.0
	if cs.FullWalkSteps > 0 {
		amp = float64(cs.ResampledSteps) / float64(cs.FullWalkSteps)
	}
	if cs.ResampledSteps > 0 {
		speedup = float64(cs.FullWalkSteps) / float64(cs.ResampledSteps)
	}
	return CorpusSeries{
		Transport:       transport,
		Shards:          corpusShards,
		ChurnEvents:     int64(len(tape)),
		Resamples:       cs.Resamples,
		ResampledSteps:  cs.ResampledSteps,
		FullWalkSteps:   cs.FullWalkSteps,
		Amplification:   amp,
		Speedup:         speedup,
		MaxRefreshLagMs: cs.RefreshLagMs,
		Fallbacks:       cs.Fallbacks,
		QueriesPerSec:   float64(cs.Queries) / elapsed.Seconds(),
	}, nil
}
