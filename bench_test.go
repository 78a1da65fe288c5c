package bingo

// This file exposes one testing.B benchmark per table/figure of the
// paper's evaluation, each running the corresponding internal/bench
// experiment at reduced scale, plus micro-benchmarks of the engine's three
// primitive operations (the empirical Table 1). Full-scale runs go through
// cmd/bingobench; see EXPERIMENTS.md for recorded results.

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"github.com/bingo-rw/bingo/internal/baseline"
	"github.com/bingo-rw/bingo/internal/bench"
	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// benchOptions is the reduced-scale configuration used by the testing.B
// wrappers; it keeps each iteration under a second on a laptop core.
func benchOptions() bench.Options {
	o := bench.DefaultOptions(io.Discard)
	o.Scale = 0.002
	o.MaxEdges = 100_000
	o.BatchSize = 2_000
	o.Rounds = 3
	o.WalkLength = 20
	o.MaxWalkers = 500
	o.Datasets = []string{"AM", "GO"}
	return o
}

func runExperiment(b *testing.B, name string, mutate func(*bench.Options)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		if mutate != nil {
			mutate(&o)
		}
		if err := bench.Run(name, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Complexity(b *testing.B)   { runExperiment(b, "table1", nil) }
func BenchmarkTable2Datasets(b *testing.B)     { runExperiment(b, "table2", nil) }
func BenchmarkTable4Conversions(b *testing.B)  { runExperiment(b, "table4", nil) }
func BenchmarkFig9GroupRatios(b *testing.B)    { runExperiment(b, "fig9", nil) }
func BenchmarkFig11Memory(b *testing.B)        { runExperiment(b, "fig11", nil) }
func BenchmarkFig12Throughput(b *testing.B)    { runExperiment(b, "fig12", nil) }
func BenchmarkFig13Breakdown(b *testing.B)     { runExperiment(b, "fig13", nil) }
func BenchmarkFig14FloatBias(b *testing.B)     { runExperiment(b, "fig14", nil) }
func BenchmarkFig15aBatchSize(b *testing.B)    { runExperiment(b, "fig15a", nil) }
func BenchmarkFig15bWalkLength(b *testing.B)   { runExperiment(b, "fig15b", nil) }
func BenchmarkFig15cDistribution(b *testing.B) { runExperiment(b, "fig15c", nil) }
func BenchmarkFig16Piecewise(b *testing.B)     { runExperiment(b, "fig16", nil) }
func BenchmarkAblation(b *testing.B)           { runExperiment(b, "ablation", nil) }

// BenchmarkTable3 runs the headline grid one (app × system) cell at a time
// so `-bench Table3` reports a per-cell figure.
func BenchmarkTable3(b *testing.B) {
	for _, sys := range []string{"Bingo", "KnightKing", "RebuildITS", "FlowWalker"} {
		b.Run(sys, func(b *testing.B) {
			runExperiment(b, "table3", func(o *bench.Options) {
				o.Systems = []string{sys}
				o.Apps = []string{"DeepWalk"}
				o.Datasets = []string{"AM"}
			})
		})
	}
}

// --- engine primitive micro-benchmarks (empirical Table 1 rows) ---------

func benchGraph(b *testing.B, v int, e int64) *graph.CSR {
	b.Helper()
	edges := gen.RMAT(v, e, gen.DefaultRMAT, 7)
	gen.AssignBiases(edges, v, gen.BiasConfig{Kind: gen.BiasDegree})
	g, err := graph.FromEdges(v, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchLJ is LJ×0.03: 144k vertices and 2.06M edges, about 270 MB of
// engine, far outside the caches.
func benchLJ(b *testing.B) *graph.CSR {
	b.Helper()
	ds, err := gen.DatasetByAbbr("LJ")
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Generate(0.03, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBingoSample(b *testing.B) {
	g := benchGraph(b, 20000, 200000)
	s, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(graph.VertexID(i%20000), r)
	}
}

func BenchmarkBingoStreamingInsertDelete(b *testing.B) {
	g := benchGraph(b, 20000, 200000)
	s, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.VertexID(r.Intn(20000))
		dst := graph.VertexID(r.Intn(20000))
		if err := s.Insert(u, dst, uint64(1+r.Intn(1000))); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(u, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// batchArms are the two ApplyBatch entry points the batch benchmarks
// compare: the bare sampler, and the same sampler behind the
// walk-while-ingest wrapper (default stripes), whose batches apply
// stripe-major under the stripe write locks.
var batchArms = []struct {
	name string
	wrap func(s *core.Sampler) func([]graph.Update) (core.BatchResult, error)
}{
	{"core", func(s *core.Sampler) func([]graph.Update) (core.BatchResult, error) { return s.ApplyBatch }},
	{"concurrent", func(s *core.Sampler) func([]graph.Update) (core.BatchResult, error) {
		return concurrent.Wrap(s, concurrent.Config{}).ApplyBatch
	}},
}

// BenchmarkBingoBatch measures one ApplyBatch of 27 000 mixed
// insert/delete events on LJ×0.03 (the repository benchmark's batch-rounds
// batch), at 1 and 2 batch workers, through each of batchArms. Every
// iteration builds a fresh engine and applies one untimed warm-up batch
// first, as batch-rounds does before its timed rounds, so the timed batch
// meets rows that have grown once rather than the exact-capacity rows of
// a fresh build. A forced GC then finishes the collection the build
// started, which would otherwise take a core from the timed batch. upd/s
// is the batch rate; the ratio of the two worker counts is the batched
// workflow's scaling.
func BenchmarkBingoBatch(b *testing.B) {
	const batch = 27000
	w, err := gen.BuildWorkload(benchLJ(b), gen.UpdMixed, batch, 2, 43)
	if err != nil {
		b.Fatal(err)
	}
	warm, timed := w.Batches()[0], w.Batches()[1]
	benchBatchArms(b, w.Initial, func(b *testing.B, apply func([]graph.Update) (core.BatchResult, error)) int {
		if _, err := apply(slices.Clone(warm)); err != nil {
			b.Fatal(err)
		}
		ups := slices.Clone(timed)
		runtime.GC()
		b.StartTimer()
		if _, err := apply(ups); err != nil {
			b.Fatal(err)
		}
		return batch
	})
}

// BenchmarkBingoBatchDrain measures the serving drain's shape: 30 batches
// of 1 024 mixed events applied back to back to a freshly built LJ×0.03
// engine, as a serving session's drain feeds them, at 1 and 2 batch
// workers through each of batchArms. Each iteration
// builds a fresh engine and forces a GC before its timed batches.
func BenchmarkBingoBatchDrain(b *testing.B) {
	const batch, rounds = 1024, 30
	w, err := gen.BuildWorkload(benchLJ(b), gen.UpdMixed, batch, rounds, 44)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchArms(b, w.Initial, func(b *testing.B, apply func([]graph.Update) (core.BatchResult, error)) int {
		batches := make([][]graph.Update, rounds)
		for i, bt := range w.Batches() {
			batches[i] = slices.Clone(bt)
		}
		runtime.GC()
		b.StartTimer()
		for _, ups := range batches {
			if _, err := apply(ups); err != nil {
				b.Fatal(err)
			}
		}
		return batch * rounds
	})
}

// benchBatchArms runs iter once per iteration for every arm × workers
// 1, 2, on an engine freshly built from g with the timer stopped; iter
// starts the timer and returns how many updates it timed.
func benchBatchArms(b *testing.B, g *graph.CSR, iter func(b *testing.B, apply func([]graph.Update) (core.BatchResult, error)) int) {
	for _, arm := range batchArms {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", arm.name, workers), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Workers = workers
				var updates int
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := core.NewFromCSR(g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					updates += iter(b, arm.wrap(s))
				}
				b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "upd/s")
			})
		}
	}
}

// BenchmarkServeShardedSetup measures how long cutting a 2-shard
// in-process service from an LJ×0.03 engine takes: Engine.ServeSharded
// plus Close, with the engine built once outside the timer and a forced
// GC before each timed iteration. B/op is the bootstrap's allocation.
func BenchmarkServeShardedSetup(b *testing.B) {
	s, err := core.NewFromCSR(benchLJ(b), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng := &Engine{s: s}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		sw, err := eng.ServeSharded(2, ShardedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeRemoteSetup measures how long bootstrapping two TCP shard
// daemons from an LJ×0.03 engine takes: Engine.ServeRemote alone, against
// two ServeShard daemons in this process on loopback. The engine and the
// daemons are set up outside the timer, and each timed iteration follows
// a forced GC and is followed by an untimed Close. B/op covers both
// sides: the coordinator's row stream and the daemons' decode and build.
func BenchmarkServeRemoteSetup(b *testing.B) {
	s, err := core.NewFromCSR(benchLJ(b), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng := &Engine{s: s}
	const shards = 2
	addrs := make([]string, shards)
	listening := make(chan struct{}, shards)
	done := make(chan error, shards)
	for i := range addrs {
		go func() {
			_, err := ServeShard("127.0.0.1:0", i, shards, ShardServeOptions{
				Walkers:  1,
				Sessions: b.N,
				OnListen: func(addr string) { addrs[i] = addr; listening <- struct{}{} },
			})
			done <- err
		}()
	}
	for range addrs {
		<-listening
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		rw, err := eng.ServeRemote(addrs, RemoteOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := rw.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	for range addrs {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewFromCSR measures building an LJ×0.03 engine from its
// snapshot on GOMAXPROCS workers (the default config), a forced GC before
// each timed iteration.
func BenchmarkNewFromCSR(b *testing.B) {
	g := benchLJ(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if _, err := core.NewFromCSR(g, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSampleComparison(b *testing.B) {
	g := benchGraph(b, 20000, 200000)
	engines := map[string]walk.Engine{}
	s, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	engines["Bingo"] = s
	engines["KnightKing"] = baseline.NewKnightKing(g)
	engines["RebuildITS"] = baseline.NewRebuildITS(g)
	engines["FlowWalker"] = baseline.NewFlowWalker(g)
	for _, name := range []string{"Bingo", "KnightKing", "RebuildITS", "FlowWalker"} {
		e := engines[name]
		b.Run(name, func(b *testing.B) {
			r := xrand.New(1)
			for i := 0; i < b.N; i++ {
				e.Sample(graph.VertexID(i%20000), r)
			}
		})
	}
}

// BenchmarkDeepWalk80 measures bulk DeepWalk (L = 80) over core.Sampler
// on a graph that does not fit in cache (LJ×0.03: 144k vertices, 2.06M
// edges, about 270 MB of engine), from every fourth vertex. The kernel
// arm takes the staged frontier draw; the per-slot arm hides the
// sampler's optional capabilities, so the same frontier steps slot by
// slot. Both walk identical paths, so steps/s compares the two directly.
func BenchmarkDeepWalk80(b *testing.B) {
	g := benchLJ(b)
	s, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	starts := make([]graph.VertexID, 0, g.NumVertices()/4)
	for v := 0; v < g.NumVertices(); v += 4 {
		starts = append(starts, graph.VertexID(v))
	}
	for _, workers := range []int{1, 2} {
		for _, arm := range []struct {
			name string
			e    walk.Engine
		}{{"kernel", s}, {"perslot", struct{ walk.Engine }{s}}} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, arm.name), func(b *testing.B) {
				cfg := walk.Config{Length: 80, Starts: starts, Seed: 5, Workers: workers}
				var steps int64
				for i := 0; i < b.N; i++ {
					steps += walk.DeepWalk(arm.e, cfg).Steps
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}
