package bingo

// This file is the public face of the standing walk corpus
// (internal/walk.CorpusService): instead of re-walking per query, the
// engine maintains K walks × L steps per vertex continuously valid under
// the update feed — edge updates dirty only the walk suffixes that
// passed through the touched vertex, and a refresh loop resamples
// exactly those — and serves queries as corpus slices under a
// bounded-staleness guarantee. See DESIGN.md, "Standing walk corpus".

import (
	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
)

// CorpusOptions configure ServeCorpus. The zero value selects all
// defaults. The refresh loop coalesces touches for 2 ms before a cycle,
// and a sharded refresh regrows with GOMAXPROCS concurrent queries.
type CorpusOptions struct {
	// Walks is K, the standing walks maintained per vertex (default 2).
	Walks int
	// WalkLength is L, each standing walk's step budget (default 80; at
	// most 65535 — positions must fit the walk index's packed postings).
	WalkLength int
	// Seed makes the corpus and regrow RNG streams reproducible.
	Seed uint64
	// StalenessBound is the maximum update events a corpus-served query
	// may trail the feed by before falling back to a fresh walk (0 =
	// default 4096; negative disables the fallback).
	StalenessBound int
	// CreditWindow bounds fed-but-unrefreshed touch events before Feed
	// blocks — the corpus-side credited backpressure (0 = default 16384,
	// negative disables).
	CreditWindow int
	// WalkersPerShard sizes the sharded backend's walker crews (shards >
	// 1 only; default max(1, GOMAXPROCS / shards)).
	WalkersPerShard int
	// HubCache tunes the hub-view caches of the backend (sharded) or the
	// regrow kernel (unsharded).
	HubCache HubCacheOptions
}

// CorpusStats snapshots a CorpusWalker's counters: queries and how they
// were served (corpus slices, stale-within-bound slices, fresh-walk
// fallbacks), the refresh work (cycles, walks resampled, the suffix hops
// sampled against FullWalkSteps — what re-walking every affected walk
// would have cost — and their ratio, Amplification), and the watermarks
// behind the bounded-staleness guarantee.
type CorpusStats = walk.CorpusServiceStats

// CorpusWalker serves walk queries from a standing corpus maintained
// under the update feed. Queries inside the staleness bound are corpus
// slices (no walking at all); the refresh loop keeps the corpus valid by
// resampling only dirtied suffixes.
type CorpusWalker struct {
	corpus    *walk.CorpusService
	floatMode bool
}

// ServeCorpus copies the engine's graph into the serving backend (an
// unsharded concurrent engine, or a shards-way sharded live service for
// shards > 1 — either way built by copying the engine's factorized
// records, not by re-inserting its edges), grows the initial corpus, and
// starts the refresh loop. The original Engine remains usable but
// further mutations to it are not reflected — feed them through the
// returned walker.
func (e *Engine) ServeCorpus(shards int, o CorpusOptions) (*CorpusWalker, error) {
	cfg := walk.CorpusConfig{
		WalksPerVertex: o.Walks,
		WalkLength:     o.WalkLength,
		Seed:           o.Seed,
		StalenessBound: int64(o.StalenessBound),
		CreditWindow:   o.CreditWindow,
		Cache:          o.HubCache,
	}
	floatMode := e.s.Config().FloatBias
	if shards <= 1 {
		s := e.s.CopyRows(func(graph.VertexID) bool { return true })
		corpus, err := walk.NewCorpusService(concurrent.Wrap(s, concurrent.Config{}), cfg)
		if err != nil {
			return nil, err
		}
		return &CorpusWalker{corpus: corpus, floatMode: floatMode}, nil
	}
	svc, err := walk.ServeSharded(e.s, shards, 1, wrapShard, walk.ShardedLiveConfig{
		WalkersPerShard: o.WalkersPerShard,
		WalkLength:      o.WalkLength,
		Seed:            o.Seed,
		Cache:           o.HubCache,
	})
	if err != nil {
		return nil, err
	}
	corpus, err := walk.NewShardedCorpusService(svc, e.s.NumVertices(), cfg)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &CorpusWalker{corpus: corpus, floatMode: floatMode}, nil
}

// Query returns a walk of up to length steps from start (<= 0 selects
// the standing length): a corpus slice inside the staleness bound, a
// fresh walk past it.
func (cw *CorpusWalker) Query(start VertexID, length int) ([]VertexID, error) {
	return cw.corpus.Query(start, length)
}

// Feed applies updates through the backend and enqueues their touches
// for suffix resampling. It blocks while the touch-event credit window
// is full and fails with an error after Close.
func (cw *CorpusWalker) Feed(ups []Update) error {
	internal, err := toInternalUpdates(cw.floatMode, ups)
	if err != nil {
		return err
	}
	return cw.corpus.Feed(internal)
}

// Sync forces a refresh cycle and blocks until the corpus has
// incorporated every Feed accepted before the call.
func (cw *CorpusWalker) Sync() error { return cw.corpus.Sync() }

// Stats snapshots the corpus counters.
func (cw *CorpusWalker) Stats() CorpusStats { return cw.corpus.Stats() }

// ServiceStats snapshots the backend service counters with the corpus
// tallies riding in the Corpus field (backend counters are zero for an
// unsharded corpus).
func (cw *CorpusWalker) ServiceStats() ShardedLiveStats { return cw.corpus.ShardedStats() }

// Close drains the touch queue through a final refresh, stops the
// refresh loop and the backend, and returns the first error observed.
// Idempotent.
func (cw *CorpusWalker) Close() error { return cw.corpus.Close() }
