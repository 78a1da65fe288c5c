package main

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"github.com/bingo-rw/bingo"
)

// batchTapeNeed is the tape a batch-rounds run takes: a warm-up round and
// one timed round per measured second (a round takes about a second on the
// reference box, and the work must not depend on how fast the commit is).
func batchTapeNeed(z sizing, seconds int) int { return (seconds + 1) * z.roundEvents() }

// round is one round's timings.
type round struct {
	applyS, streamS, walkS, totalS float64
	steps                          int64
	visibilityMs, spotUs           []float64 // per ApplyStream call, per single-start walk
}

// runBatch is the paper's §6.1 workflow through bingo.Engine: per round,
// one large batch through ApplyBatch, a trickle through ApplyStream, then
// DeepWalk from every vertex; and, so that the batch API has a walk latency
// at all, a few single-start walks timed one by one.
func runBatch(in *inputs, seconds int, rec *recorder) (*runResult, error) {
	res := &runResult{e2e: values{}, layer: values{}}
	z := in.sz
	tp := in.newTape()
	ln := rec.lane()
	spot := in.startStream(in.liveStarts, 3)
	var eng *bingo.Engine

	doRound := func(phase int32, ln *lane, seed uint64) (round, error) {
		var r round
		t0 := time.Now()
		b, err := tp.take(z.batchEvents)
		if err != nil {
			return r, err
		}
		res.attempted++
		if _, err := eng.ApplyBatch(b); err != nil {
			res.failed++
			return r, fmt.Errorf("ApplyBatch: %w", err)
		}
		t1 := time.Now()
		ln.add("apply_batch", phase, int64(seed), t0, t1)
		for done := 0; done < z.streamEvents; done += z.streamCall {
			b, err := tp.take(min(z.streamCall, z.streamEvents-done))
			if err != nil {
				return r, err
			}
			res.attempted++
			c0 := time.Now()
			if err := eng.ApplyStream(b); err != nil {
				res.failed++
				return r, fmt.Errorf("ApplyStream: %w", err)
			}
			c1 := time.Now()
			ln.add("apply_stream", phase, int64(seed), c0, c1)
			r.visibilityMs = append(r.visibilityMs, ms(c1.Sub(c0)))
		}
		t2 := time.Now()
		res.attempted++
		walk := eng.DeepWalk(bingo.WalkOptions{Length: z.longWalk, Workers: 2, Seed: seed})
		t3 := time.Now()
		ln.add("deepwalk", phase, int64(seed), t2, t3)
		for q := 0; q < z.spotWalks; q++ {
			res.attempted++
			c0 := time.Now()
			eng.DeepWalk(bingo.WalkOptions{Length: z.longWalk, Starts: []bingo.VertexID{spot()}, Seed: seed + uint64(q)})
			c1 := time.Now()
			ln.add("query", phase, int64(q), c0, c1)
			r.spotUs = append(r.spotUs, us(c1.Sub(c0)))
		}
		r.applyS, r.streamS, r.walkS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
		r.totalS, r.steps = t3.Sub(t0).Seconds(), walk.Steps
		return r, nil
	}

	// Set-up: build the engine and run round 0 as the warm-up, several
	// times over; every repetition replays the same tape head.
	var setups []float64
	for rep := 0; rep < z.setupReps; rep++ {
		eng = nil
		debug.FreeOSMemory()
		tp.pos = 0
		_, end := rec.phase("setup")
		t0 := time.Now()
		var err error
		if eng, err = in.newEngine(); err != nil {
			return nil, err
		}
		if _, err := doRound(0, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		end()
	}

	o0, g0 := obsCounters(), readGo()
	rec.snapshot("timed-start", o0)
	var rounds []round
	for i := 1; i <= seconds; i++ {
		// A traced run records spans in every other round, so that the two
		// sets' step rates differ by the tracing overhead alone.
		l := ln
		if i%2 == 1 {
			l = nil
		}
		var phase int32
		end := func() {}
		if l != nil {
			phase, end = rec.phase("round")
		}
		r, err := doRound(phase, l, uint64(i))
		end()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	o1, g1 := obsCounters(), readGo()
	rec.snapshot("timed-end", o1)

	col := func(f func(round) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	stepRate := func(r round) float64 { return float64(r.steps) / r.walkS }
	// Like the serving workloads' parts, each round gives its own median and
	// p99, and the run reports the median over the rounds.
	var visibility []float64
	spots := 0
	for _, r := range rounds {
		sort.Float64s(r.spotUs)
		visibility = append(visibility, r.visibilityMs...)
		spots += len(r.spotUs)
	}
	sort.Float64s(visibility)
	e := res.e2e
	e["setup_s"] = median(setups)
	e["steps_per_s"] = median(col(stepRate))
	e["updates_per_s"] = median(col(func(r round) float64 { return float64(z.batchEvents) / r.applyS }))
	e["query_p50_us"] = median(col(func(r round) float64 { return quantile(r.spotUs, 0.50) }))
	e["query_p99_us"] = median(col(func(r round) float64 { return quantile(r.spotUs, 0.99) }))
	e["visibility_p50_ms"] = median(col(func(r round) float64 { return median(r.visibilityMs) }))
	e["bytes_per_edge"] = bytesPerEdge(eng)
	fmt.Printf("# %d rounds, %d single walks and %d stream calls timed\n", len(rounds), spots, len(visibility))
	if !supports(spots, 0.99, z.tailBeyond) {
		res.check("query_p99_us", fmt.Errorf("%d timed walks leave fewer than %d beyond p99", spots, z.tailBeyond))
	}

	if rec != nil {
		l := res.layer
		var steps int64
		for _, r := range rounds {
			steps += r.steps
		}
		for _, name := range []string{
			"walk.transfers_per_step", "walk.hubcache_hit_rate", "walk.remote_view_hits_per_step",
			"walk.hubcache_stale_per_kstep", "walk.feed_us_per_batch", "walk.sync_ms", "walk.credit_stalls",
			"walk.max_outstanding", "bench.feed_lag_p99_ms", "bench.feed_backlog_end",
		} {
			l[name] = 0 // no serving tier runs here
		}
		fabricMetrics(l, o0, o1, float64(steps), float64(len(rounds)*(1+z.spotWalks)), float64(len(rounds)*z.roundEvents()))
		goMetrics(l, g0, g1, steps)
		l["bingo.round_s"] = median(col(func(r round) float64 { return r.totalS }))
		l["bingo.stream_updates_per_s"] = median(col(func(r round) float64 { return float64(z.streamEvents) / r.streamS }))
		tail := highestTail(len(visibility))
		l["bingo.visibility_tail_ms"] = quantile(visibility, tail)
		l["bingo.visibility_tail_pct"] = 100 * tail
		var plainRate, tracedRate []float64
		for i, r := range rounds {
			if i%2 == 0 { // round i+1: odd rounds run untraced
				plainRate = append(plainRate, stepRate(r))
			} else {
				tracedRate = append(tracedRate, stepRate(r))
			}
		}
		l["trace.overhead_pct"] = 100 * (1 - ratio(median(tracedRate), median(plainRate)))
	}

	e["peak_rss_mb"] = peakRSSMB() // before the checks: their reference graph is not the system's memory

	// Output checks, on the engine as the last round left it.
	res.check("CheckInvariants", eng.CheckInvariants())
	ref, err := replay(in, tp.pos)
	if err != nil {
		res.check("sequential replay", err)
	} else {
		res.check("edge set", sameEdges(ref, eng))
		res.check("sampling distribution", chiSquareAt(ref, eng, in.topHub, z.chiDraws, in.seed+7))
	}
	return res, nil
}
