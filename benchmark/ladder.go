package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/bingo-rw/bingo"
	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
)

// rung is one layer's public entry point replaying the ladder's query set
// on a single goroutine.
type rung struct {
	Name      string  `json:"name"`
	Queries   int     `json:"queries"` // replayed before the rung's time box closed
	Steps     int64   `json:"steps"`
	Seconds   float64 `json:"seconds"`
	NsPerStep float64 `json:"ns_per_step"`
	QueryUs   float64 `json:"query_us"`
	OverBelow float64 `json:"over_below"` // ns/step as a multiple of the rung below
}

// ladderQuery is one entry of the fixed set.
type ladderQuery struct {
	start bingo.VertexID
	seed  uint64
}

// climb replays queries in order through walk until the set or the time box
// is exhausted; walk returns the steps it took. The clock is read every 64
// queries, so that reading it stays off the lowest rungs' bill.
func climb(name string, qs []ladderQuery, box time.Duration, walk func(ladderQuery) (int64, error)) (rung, error) {
	r := rung{Name: name}
	t0 := time.Now()
	for i, q := range qs {
		if i%64 == 0 && time.Since(t0) > box {
			break
		}
		n, err := walk(q)
		if err != nil {
			return r, fmt.Errorf("ladder rung %s, query %d: %w", name, i, err)
		}
		r.Steps += n
		r.Queries++
	}
	r.Seconds = time.Since(t0).Seconds()
	r.NsPerStep = ratio(r.Seconds*1e9, float64(r.Steps))
	r.QueryUs = ratio(r.Seconds*1e6, float64(r.Queries))
	return r, nil
}

// runLadder measures the layers one at a time, bottom up, on the initial
// snapshot: the same queries (the workload's own starts and length) through
// each layer's entry point, single-threaded, so that a rung's cost over the
// rung below is that layer's cost. The low rungs are internal packages; from
// the walk kernel up they are the public API, which is how the workloads
// reach them. Between rungs it times the layers' update paths on the tape's
// head. It fills the per-layer metrics that do not depend on the workload's
// own timed part.
func runLadder(in *inputs, pool []bingo.VertexID, length int, v values) ([]rung, error) {
	z := in.sz
	next := in.startStream(pool, 4)
	qs := make([]ladderQuery, z.ladderQueries)
	starts := make([]bingo.VertexID, len(qs))
	for i := range qs {
		qs[i] = ladderQuery{start: next(), seed: in.seed + uint64(i)}
		starts[i] = qs[i].start
	}
	var rungs []rung
	add := func(r rung, err error) error {
		if err != nil {
			return err
		}
		if n := len(rungs); n > 0 {
			r.OverBelow = ratio(r.NsPerStep, rungs[n-1].NsPerStep)
		}
		rungs = append(rungs, r)
		return nil
	}

	// Rung 1: core.Sampler.Sample in a loop.
	t0 := time.Now()
	s, err := core.NewFromCSR(in.initial, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	v["core.build_s"] = time.Since(t0).Seconds()
	fp := s.CollectFootprint()
	var groupBytes int64
	for _, b := range fp.Kind {
		groupBytes += b
	}
	v["core.bytes_per_edge"] = ratio(float64(fp.Total), float64(s.NumEdges()))
	v["core.group_bytes_share"] = 100 * ratio(float64(groupBytes), float64(fp.Total))
	rng := bingo.NewRand(0)
	sampleLoop := func(q ladderQuery) (int64, error) {
		rng.Seed(q.seed)
		cur, steps := q.start, int64(0)
		for ; steps < int64(length); steps++ {
			nxt, ok := s.Sample(cur, rng)
			if !ok {
				break
			}
			cur = nxt
		}
		return steps, nil
	}
	// One untimed pass first: the bottom rung must not be the only one that
	// walks memory nobody has read since it was built.
	if _, err := climb("warm-up", qs, z.ladderBox, sampleLoop); err != nil {
		return nil, err
	}
	if err := add(climb("core.Sampler.Sample", qs, z.ladderBox, sampleLoop)); err != nil {
		return nil, err
	}

	// Rung 2: concurrent.Engine.WalkFrom over the same sampler.
	ce := concurrent.Wrap(s, concurrent.Config{})
	var buf []graph.VertexID
	walkFrom := func(q ladderQuery) (int64, error) {
		rng.Seed(q.seed)
		buf, _ = ce.WalkFrom(q.start, length, rng, buf[:0])
		return int64(len(buf) - 1), nil
	}
	if err := add(climb("concurrent.Engine.WalkFrom", qs, z.ladderBox, walkFrom)); err != nil {
		return nil, err
	}

	// The update paths, on successive stretches of the tape: a batch through
	// the concurrent wrapper alone, a batch beside a walker (for the epoch
	// retries only writers cause), then core's own batch and stream paths.
	raw := &tape[graph.Update]{ups: in.tapeRaw}
	perUpdate := func(n int, apply func([]graph.Update) error) (float64, error) {
		b, err := raw.take(n)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = apply(b)
		return float64(time.Since(t0).Nanoseconds()) / float64(n), err
	}
	ceBatch := func(b []graph.Update) error { _, err := ce.ApplyBatch(b); return err }
	if v["concurrent.apply_batch_ns_per_update"], err = perUpdate(z.batchEvents, ceBatch); err != nil {
		return nil, err
	}
	var retries, contested int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := bingo.NewRand(in.seed)
		var path []graph.VertexID
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var n int
			path, n = ce.WalkFrom(starts[i%len(starts)], length, r, path[:0])
			retries += int64(n)
			contested += int64(len(path) - 1)
		}
	}()
	_, err = perUpdate(z.batchEvents, ceBatch)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	v["concurrent.retries_per_kstep"] = 1000 * ratio(float64(retries), float64(contested))
	conv0, _ := s.ConversionStats()
	if v["core.apply_batch_ns_per_update"], err = perUpdate(z.batchEvents, func(b []graph.Update) error { _, err := s.ApplyBatch(b); return err }); err != nil {
		return nil, err
	}
	if v["core.stream_ns_per_update"], err = perUpdate(z.streamEvents, s.ApplyUpdatesStreaming); err != nil {
		return nil, err
	}
	conv1, _ := s.ConversionStats()
	var conversions int64
	for i := range conv1 {
		for j := range conv1[i] {
			if i != j {
				conversions += conv1[i][j] - conv0[i][j]
			}
		}
	}
	v["core.conversions_per_kupdate"] = 1000 * ratio(float64(conversions), float64(z.batchEvents+z.streamEvents))
	s, ce = nil, nil
	debug.FreeOSMemory()

	// Rung 3: the bulk kernel. From here up the rungs are the public API.
	eng, err := in.newEngine()
	if err != nil {
		return nil, err
	}
	cc := eng.Concurrent()
	kernel := func(workers int) rung {
		t0 := time.Now()
		res := cc.DeepWalk(bingo.WalkOptions{Length: length, Starts: starts, Workers: workers, Seed: in.seed})
		r := rung{Name: "walk.DeepWalk", Queries: res.Walkers, Steps: res.Steps, Seconds: time.Since(t0).Seconds()}
		r.NsPerStep = ratio(r.Seconds*1e9, float64(r.Steps))
		r.QueryUs = ratio(r.Seconds*1e6, float64(r.Queries))
		return r
	}
	one := kernel(1)
	if err := add(one, nil); err != nil {
		return nil, err
	}
	v["walk.kernel_scaling_2w"] = ratio(one.Seconds, kernel(2).Seconds)

	// Rungs 4 to 7 are services: the live service over the same concurrent
	// engine, then the sharded runtime on one shard (the coordinator hop, no
	// transfers), on two, and on two behind loopback TCP.
	service := func(name string, sv *served) error {
		err := add(climb(name, qs, z.ladderBox, func(q ladderQuery) (int64, error) {
			path, err := sv.query(q.start, length)
			return int64(len(path) - 1), err
		}))
		if cerr := sv.close(); err == nil {
			err = cerr
		}
		debug.FreeOSMemory()
		return err
	}
	lw := cc.Serve(bingo.LiveOptions{})
	if err := service("LiveService.Query", &served{query: lw.Query, close: lw.Close}); err != nil {
		return nil, err
	}
	eng, cc, lw = nil, nil, nil
	for _, tier := range []struct {
		name      string
		open      func(*inputs) (*served, error)
		bootstrap string // the per-layer metric that takes the tier's bootstrap time
	}{
		{"ShardedLiveService.Query x1", openSharded(1), ""},
		{"ShardedLiveService.Query x2", openSharded(2), "walk.bootstrap_s"},
		{"RemoteService.Query x2", openTCP, "fabric.tcp_bootstrap_s"},
	} {
		t0 := time.Now()
		sv, err := tier.open(in)
		if err != nil {
			return nil, err
		}
		if tier.bootstrap != "" {
			v[tier.bootstrap] = time.Since(t0).Seconds()
		}
		if err := service(tier.name, sv); err != nil {
			return nil, err
		}
	}

	for i, names := range [][3]string{
		{"core.sample_ns_per_step", "", ""},
		{"concurrent.walk_ns_per_step", "", "concurrent.over_core"},
		{"walk.kernel_ns_per_step", "", "walk.kernel_over_concurrent"},
		{"walk.live_ns_per_step", "walk.live_query_us", "walk.live_over_kernel"},
		{"walk.sharded1_ns_per_step", "walk.sharded1_query_us", "walk.sharded1_over_live"},
		{"walk.sharded2_ns_per_step", "walk.sharded2_query_us", "walk.sharded2_over_sharded1"},
		{"fabric.tcp2_ns_per_step", "fabric.tcp2_query_us", "fabric.tcp_over_inproc"},
	} {
		r := rungs[i]
		v[names[0]] = r.NsPerStep
		if names[1] != "" {
			v[names[1]] = r.QueryUs
		}
		if names[2] != "" {
			v[names[2]] = r.OverBelow
		}
	}
	return rungs, nil
}
