package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/bingo-rw/bingo"
)

// serveSpec is what tells the three serving workloads apart: the tier, the
// client count, where walks start and how long they are, and whether
// updates arrive beside the queries.
type serveSpec struct {
	open    func(*inputs) (*served, error)
	clients int  // closed-loop query clients
	hubs    bool // short walks from the top hubs; otherwise long walks from anywhere
	mixed   bool // the open-loop feeder runs beside the clients
}

var serveSpecs = map[string]serveSpec{
	"live-read":     {open: openLive, clients: 2},
	"sharded-mixed": {open: openSharded(2), clients: 1, hubs: true, mixed: true},
	"tcp-mixed":     {open: openTCP, clients: 1, hubs: true, mixed: true},
}

func (s serveSpec) goroutines() int {
	if s.mixed {
		return s.clients + 1
	}
	return s.clients
}

func (s serveSpec) walk(in *inputs) (pool []bingo.VertexID, length int) {
	if s.hubs {
		return in.hubStarts, in.sz.hubWalk
	}
	return in.liveStarts, in.sz.longWalk
}

// tapeNeed is how many tape events a serving run of the given length takes.
func (s serveSpec) tapeNeed(z sizing, seconds int) int {
	if s.mixed {
		return z.drainChunks*z.drainEvents + z.feedRate*seconds + z.feedBatch*z.timedParts
	}
	return z.drainChunks*z.drainEvents + z.probeBatches*z.feedBatch
}

// runResult is what a workload hands back: its figures, its operation
// counts, and the output checks that failed.
type runResult struct {
	e2e, layer        values
	attempted, failed int64
	problems          []string
}

func (r *runResult) check(what string, err error) {
	if err != nil {
		r.problems = append(r.problems, what+": "+err.Error())
	}
}

// clientRun is one closed-loop client's tally over a timed part.
type clientRun struct {
	latencyUs       []float64
	queries, failed int64
	steps           int64
	sampled         [][]bingo.VertexID // every sampleEvery-th path, for the output check
}

const sampleEvery = 1000

// client queries back to back until the deadline: the next request goes out
// when the previous reply is in, so a slower tier is offered less load.
func client(sv *served, id int, next func() bingo.VertexID, length int, deadline time.Time, ln *lane, phase int32, keepPaths bool) clientRun {
	var c clientRun
	t0 := time.Now()
	for t0.Before(deadline) {
		path, err := sv.query(next(), length)
		t1 := time.Now()
		ln.add("query", phase, int64(id)<<40|c.queries, t0, t1)
		c.queries++
		if err != nil || len(path) == 0 {
			c.failed++
			return c // a tier that failed a query is not measured further
		}
		c.latencyUs = append(c.latencyUs, us(t1.Sub(t0)))
		c.steps += int64(len(path) - 1)
		if keepPaths && c.queries%sampleEvery == 0 {
			c.sampled = append(c.sampled, path)
		}
		t0 = t1
	}
	return c
}

// timedRun is one timed part: the clients' tallies and the feeder's.
type timedRun struct {
	seconds float64
	clients []clientRun
	feed    feedRun
}

func (t timedRun) steps() (n int64) {
	for _, c := range t.clients {
		n += c.steps
	}
	return n
}

// serving drives one serving workload.
type serving struct {
	spec serveSpec
	in   *inputs
	rec  *recorder
	sv   *served
	tp   *tape[bingo.Update]
	res  runResult

	feedUs, syncMs []float64 // per Feed and per Sync call, all phases
}

// send feeds one batch and waits until it is visible, timing the two calls
// apart. It runs on the feeder's goroutine only.
func (w *serving) send(ln *lane, phase int32) func([]bingo.Update) error {
	var req int64
	return func(b []bingo.Update) error {
		req++
		w.res.attempted++
		t0 := time.Now()
		if err := w.sv.feed(b); err != nil {
			w.res.failed++
			return fmt.Errorf("Feed: %w", err)
		}
		w.res.attempted++
		t1 := time.Now()
		if err := w.sv.sync(); err != nil {
			w.res.failed++
			return fmt.Errorf("Sync: %w", err)
		}
		t2 := time.Now()
		ln.add("feed", phase, req, t0, t1)
		ln.add("sync", phase, req, t1, t2)
		w.feedUs = append(w.feedUs, us(t1.Sub(t0)))
		w.syncMs = append(w.syncMs, ms(t2.Sub(t1)))
		return nil
	}
}

// setUp opens the tier and warms it with a fixed number of queries, several
// times over; it keeps the last tier and returns each set-up's seconds.
func (w *serving) setUp() ([]float64, error) {
	pool, length := w.spec.walk(w.in)
	var times []float64
	for rep := 0; rep < w.in.sz.setupReps; rep++ {
		if w.sv != nil {
			if err := w.sv.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", rep-1, err)
			}
			w.sv = nil
			debug.FreeOSMemory()
		}
		_, end := w.rec.phase("setup")
		t0 := time.Now()
		sv, err := w.spec.open(w.in)
		if err != nil {
			return nil, err
		}
		w.sv = sv
		next := w.in.startStream(pool, 1)
		for q := 0; q < w.in.sz.warmQueries; q++ {
			if _, err := sv.query(next(), length); err != nil {
				return nil, fmt.Errorf("warm-up query: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		end()
	}
	return times, nil
}

// drain feeds the next stretch of the tape flat out, waits for it to be
// visible, and returns the updates per second that took.
func (w *serving) drain() (float64, error) {
	phase, end := w.rec.phase("drain")
	defer end()
	ln := w.rec.lane()
	z := w.in.sz
	t0 := time.Now()
	for fed := 0; fed < z.drainEvents; fed += z.drainBatch {
		b, err := w.tp.take(min(z.drainBatch, z.drainEvents-fed))
		if err != nil {
			return 0, err
		}
		w.res.attempted++
		t1 := time.Now()
		if err := w.sv.feed(b); err != nil {
			w.res.failed++
			return 0, fmt.Errorf("Feed: %w", err)
		}
		ln.add("feed", phase, int64(fed), t1, time.Now())
	}
	w.res.attempted++
	t1 := time.Now()
	if err := w.sv.sync(); err != nil {
		w.res.failed++
		return 0, fmt.Errorf("Sync: %w", err)
	}
	t2 := time.Now()
	ln.add("sync", phase, 0, t1, t2)
	return float64(z.drainEvents) / t2.Sub(t0).Seconds(), nil
}

// timed runs the clients, and on a mixed workload the feeder beside them,
// for d. The feeder's timetable is absolute from the part's start; part
// keeps one part's start vertices apart from the next's.
func (w *serving) timed(part int, d time.Duration, traced bool) (timedRun, error) {
	rec := w.rec
	if !traced {
		rec = nil
	}
	phase, end := rec.phase("steady")
	defer end()
	pool, length := w.spec.walk(w.in)
	z := w.in.sz
	run := timedRun{clients: make([]clientRun, w.spec.clients)}
	start := time.Now()
	deadline := start.Add(d)

	var wg sync.WaitGroup
	for i := range run.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			next := w.in.startStream(pool, uint64(100+16*part+i))
			run.clients[i] = client(w.sv, i, next, length, deadline, rec.lane(), phase, !w.spec.mixed)
		}(i)
	}
	var feedErr error
	if w.spec.mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sch := schedule{start: start, interval: time.Second * time.Duration(z.feedBatch) / time.Duration(z.feedRate)}
			run.feed, feedErr = feed(wallClock{}, sch, deadline, 0, z.feedBatch, w.tp, w.send(rec.lane(), phase))
		}()
	}
	wg.Wait()
	run.seconds = time.Since(start).Seconds()
	for _, c := range run.clients {
		w.res.attempted += c.queries
		w.res.failed += c.failed
	}
	return run, feedErr
}

// runServing is the whole of a serving workload: set-ups, drain, the timed
// part, checks.
func runServing(spec serveSpec, in *inputs, seconds int, rec *recorder) (*runResult, error) {
	if n, p := spec.goroutines(), runtime.GOMAXPROCS(0); n > p {
		return nil, fmt.Errorf("workload runs %d client goroutines on GOMAXPROCS=%d: they would time each other's scheduling, not the system", n, p)
	}
	w := &serving{spec: spec, in: in, rec: rec, tp: in.newTape()}
	w.res.e2e, w.res.layer = values{}, values{}
	z := in.sz

	setups, err := w.setUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if w.sv != nil {
			w.sv.close()
		}
	}()
	rec.snapshot("ready", obsCounters())

	var drains []float64
	for i := 0; i < z.drainChunks; i++ {
		rate, err := w.drain()
		if err != nil {
			return nil, err
		}
		drains = append(drains, rate)
	}

	// Visibility. Beside queries it comes from the open-loop feeder below; a
	// read-only workload gets it from a closed loop on the idle tier, before
	// its timed part starts.
	var visibility []float64
	if !spec.mixed {
		phase, end := rec.phase("probe")
		probe, err := feed(wallClock{}, schedule{}, time.Time{}, z.probeBatches, z.feedBatch, w.tp, w.send(rec.lane(), phase))
		end()
		if err != nil {
			return nil, err
		}
		visibility = probe.visibility
	}

	c0, o0, g0 := w.sv.stats(), obsCounters(), readGo()
	rec.snapshot("timed-start", o0)
	// The timed part is cut into parts and every figure is the median over
	// them, which a bad second on a shared box, or the one garbage collection
	// that lands in a part, does not move (pooled, the p99 of sharded-mixed
	// spread 16-26 % between runs; as a median of parts, 12 %). A traced run
	// cuts twice as fine and records spans in every other part, so that
	// drift over the run falls on traced and untraced parts alike and their
	// step rates differ by the tracing overhead alone.
	n := z.timedParts
	if rec != nil {
		n *= 2
	}
	var parts []timedRun
	for i := 0; i < n; i++ {
		run, err := w.timed(i, time.Duration(seconds)*time.Second/time.Duration(n), i%2 == 1)
		if err != nil {
			return nil, err
		}
		parts = append(parts, run)
	}
	c1, o1, g1 := w.sv.stats(), obsCounters(), readGo()
	rec.snapshot("timed-end", o1)

	var rates, p50s, p99s, visP50s, lag []float64
	var timedQueries int
	var sampled [][]bingo.VertexID
	var steps, queries int64
	var dur float64
	var backlog int
	for i, p := range parts {
		var latency []float64
		for _, c := range p.clients {
			latency = append(latency, c.latencyUs...)
			sampled = append(sampled, c.sampled...)
			queries += c.queries
		}
		sort.Float64s(latency)
		rates = append(rates, float64(p.steps())/p.seconds)
		p50s = append(p50s, quantile(latency, 0.50))
		p99s = append(p99s, quantile(latency, 0.99))
		timedQueries += len(latency)
		if spec.mixed {
			visP50s = append(visP50s, median(p.feed.visibility))
			visibility = append(visibility, p.feed.visibility...)
		}
		fmt.Printf("# part %d: %.0f steps/s, query p50 %.1f us p99 %.1f us over %d, %d batches fed\n",
			i, rates[i], p50s[i], p99s[i], len(latency), p.feed.batches)
		dur += p.seconds
		steps += p.steps()
		lag = append(lag, p.feed.lag...)
		backlog += p.feed.backlog
	}
	if !spec.mixed {
		visP50s = []float64{median(visibility)}
	}
	sort.Float64s(visibility)
	sort.Float64s(lag)

	e := w.res.e2e
	e["setup_s"] = median(setups)
	e["steps_per_s"] = median(rates)
	e["updates_per_s"] = median(drains)
	e["query_p50_us"] = median(p50s)
	e["query_p99_us"] = median(p99s)
	e["visibility_p50_ms"] = median(visP50s)
	e["bytes_per_edge"] = w.sv.bytesPerEdge
	fmt.Printf("# drain chunks: %.0f updates/s\n", drains)
	fmt.Printf("# %d queries timed, %d visibility samples\n", timedQueries, len(visibility))
	if !supports(timedQueries, 0.99, z.tailBeyond) {
		w.res.check("query_p99_us", fmt.Errorf("%d timed queries leave fewer than %d beyond p99", timedQueries, z.tailBeyond))
	}

	if rec != nil {
		l := w.res.layer
		fsteps, fqueries := float64(steps), float64(queries)
		fed := float64(z.feedBatch * len(lag))
		l["walk.transfers_per_step"] = ratio(float64(c1.transfers-c0.transfers), fsteps)
		l["walk.hubcache_hit_rate"] = 100 * ratio(float64(c1.localHits-c0.localHits+c1.remoteHits-c0.remoteHits), fsteps)
		l["walk.remote_view_hits_per_step"] = ratio(float64(c1.remoteHits-c0.remoteHits), fsteps)
		l["walk.hubcache_stale_per_kstep"] = 1000 * ratio(float64(c1.localStale-c0.localStale+c1.remoteStale-c0.remoteStale), fsteps)
		l["walk.feed_us_per_batch"] = median(w.feedUs)
		l["walk.sync_ms"] = median(w.syncMs)
		l["walk.credit_stalls"] = ms(c1.stalled - c0.stalled)
		l["walk.max_outstanding"] = float64(c1.maxOutstanding)
		fabricMetrics(l, o0, o1, fsteps, fqueries, fed)
		goMetrics(l, g0, g1, steps)
		l["bingo.round_s"] = 0
		l["bingo.stream_updates_per_s"] = ratio(fed, dur)
		tail := highestTail(len(visibility))
		l["bingo.visibility_tail_ms"] = quantile(visibility, tail)
		l["bingo.visibility_tail_pct"] = 100 * tail
		l["bench.feed_lag_p99_ms"] = quantile(lag, 0.99)
		l["bench.feed_backlog_end"] = float64(backlog)
		var rate [2]struct{ steps, seconds float64 }
		for i, p := range parts {
			rate[i%2].steps += float64(p.steps())
			rate[i%2].seconds += p.seconds
		}
		l["trace.overhead_pct"] = 100 * (1 - ratio(ratio(rate[1].steps, rate[1].seconds), ratio(rate[0].steps, rate[0].seconds)))
	}

	e["peak_rss_mb"] = peakRSSMB() // before the checks: their reference graph is not the system's memory
	w.checkOutputs(sampled)
	err = w.sv.close()
	w.sv = nil
	w.res.check("Close", err)
	return &w.res, nil
}

// checkOutputs runs after the timed part: the ingest tallies must match what
// was fed, and walks over the now quiet tier must follow edges of the
// benchmark's own sequential replay of the same tape prefix.
func (w *serving) checkOutputs(sampled [][]bingo.VertexID) {
	res := &w.res
	res.attempted++
	if err := w.sv.sync(); err != nil {
		res.failed++
		res.check("final Sync", err)
		return
	}
	if st := w.sv.stats(); st.updates != int64(w.tp.pos) || st.dropped != 0 {
		res.check("ingest", fmt.Errorf("fed %d events, Stats reports %d applied and %d batches dropped", w.tp.pos, st.updates, st.dropped))
	}
	ref, err := replay(w.in, w.tp.pos)
	if err != nil {
		res.check("sequential replay", err)
		return
	}
	degree := func(v bingo.VertexID) int { return int(ref.degree[v]) }
	pool, length := w.spec.walk(w.in)
	// A read-only timed part saw this very graph, so its paths are checked
	// too; paths walked beside the feed saw graphs that no longer exist.
	for _, p := range sampled {
		if err := checkPath(p, length, ref.hasEdge, degree); err != nil {
			res.failed++
			res.check("timed path", err)
			break
		}
	}
	next := w.in.startStream(pool, 2)
	for q := 0; q < w.in.sz.checkWalks; q++ {
		res.attempted++
		path, err := w.sv.query(next(), length)
		if err == nil {
			err = checkPath(path, length, ref.hasEdge, degree)
		}
		if err != nil {
			res.failed++
			res.check("quiesced walk", err)
			break
		}
	}
}
