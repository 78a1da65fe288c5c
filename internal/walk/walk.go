// Package walk implements the random-walk engine and the paper's four
// application kernels (§6): biased DeepWalk, node2vec, personalized
// PageRank (PPR), and simple sampling. Every walker draws from its own
// deterministic RNG stream, and walkers are spread over workers. DeepWalk
// keeps a frontier of up to 1024 walkers in flight per worker and
// advances them one hop per round, so the memory stalls of different
// walkers overlap — the CPU analogue of the paper's massively parallel GPU
// walkers. The other kernels walk one walker at a time.
//
// The package is engine-agnostic: Bingo (internal/core) and all baselines
// (internal/baseline) implement the same Engine/Dynamic interfaces, which
// is what makes the Table 3 comparison apples-to-apples.
package walk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// Engine is the sampling interface every system under test implements.
type Engine interface {
	// Sample draws a neighbor of u with probability proportional to edge
	// bias. ok is false when u has no sampleable out-edge.
	Sample(u graph.VertexID, r *xrand.RNG) (v graph.VertexID, ok bool)
	// Degree returns u's out-degree.
	Degree(u graph.VertexID) int
	// HasEdge reports whether edge u→dst is live (used by node2vec's
	// second-order rejection test).
	HasEdge(u, dst graph.VertexID) bool
	// NumVertices returns the vertex-ID space size.
	NumVertices() int
}

// Dynamic extends Engine with the update operations the evaluation drives.
type Dynamic interface {
	Engine
	// InsertEdge adds u→dst with integer bias plus fractional part.
	InsertEdge(u, dst graph.VertexID, bias uint64, fbias float64) error
	// DeleteEdge removes one live instance of u→dst.
	DeleteEdge(u, dst graph.VertexID) error
	// ApplyUpdates ingests a batch (engines free to process it their
	// preferred way: incrementally, or rebuild-per-round like the
	// adapted static systems in §6.2).
	ApplyUpdates(ups []graph.Update) error
	// Footprint returns the engine's memory consumption in bytes.
	Footprint() int64
}

// Config parameterizes a walk run.
type Config struct {
	// Length is the walk length (paper default 80). For PPR it bounds
	// the maximum length; termination is geometric with TermProb.
	Length int
	// Starts are the start vertices; nil means every vertex (the paper
	// initializes "the vertex count number of random walkers").
	Starts []graph.VertexID
	// Workers is the number of goroutines walkers are split over
	// (<= 0 means 1).
	Workers int
	// Seed makes the run reproducible.
	Seed uint64
	// TermProb is PPR's per-step termination probability (default 1/80).
	TermProb float64
	// P and Q are node2vec's return/in-out hyper-parameters (paper
	// defaults 0.5 and 2).
	P, Q float64
	// CountVisits enables per-vertex visit counting (needed by PPR-style
	// frequency queries; costs one atomic add per step).
	CountVisits bool
}

func (c Config) withDefaults() Config {
	if c.Length <= 0 {
		c.Length = 80
	}
	if c.TermProb <= 0 {
		c.TermProb = 1.0 / 80
	}
	if c.P <= 0 {
		c.P = 0.5
	}
	if c.Q <= 0 {
		c.Q = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Result summarizes a walk run.
type Result struct {
	// Walkers is the number of walks performed.
	Walkers int
	// Steps is the total number of sampling steps taken.
	Steps int64
	// Visits[v] counts arrivals at v across all walks (nil unless
	// Config.CountVisits).
	Visits []int64
}

// startsOf materializes the configured start set over a vertex space of
// numVertices (nil Starts = every vertex).
func startsOf(cfg Config, numVertices int) []graph.VertexID {
	if cfg.Starts != nil {
		return cfg.Starts
	}
	all := make([]graph.VertexID, numVertices)
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	return all
}

// runParallel runs one walk closure per walker, fanned out over workers.
// Each walker gets stream master.Split(walkerIndex), so results are
// independent of worker count.
func runParallel(e Engine, cfg Config, walk func(start graph.VertexID, r *xrand.RNG, visits []int64) int64) Result {
	cfg = cfg.withDefaults()
	starts := startsOf(cfg, e.NumVertices())
	res, master := newRun(e, cfg, starts)
	res.Steps = fanOut(len(starts), cfg.Workers, func(lo, hi int) int64 {
		var steps int64
		for i := lo; i < hi; i++ {
			steps += walk(starts[i], master.Split(uint64(i)), res.Visits)
		}
		return steps
	})
	return res
}

// newRun returns the result shell of a run over starts (visit tally
// allocated when counting) and the master stream walkers split from.
func newRun(e Engine, cfg Config, starts []graph.VertexID) (Result, *xrand.RNG) {
	res := Result{Walkers: len(starts)}
	if cfg.CountVisits {
		res.Visits = make([]int64, e.NumVertices())
	}
	return res, xrand.New(cfg.Seed)
}

// fanOut splits walkers [0, n) into one contiguous range per worker, runs
// them concurrently, and returns the summed steps. Too few walkers to
// share run inline.
func fanOut(n, workers int, run func(lo, hi int) int64) int64 {
	if workers <= 1 || n < 2*workers {
		return run(0, n)
	}
	var wg sync.WaitGroup
	var steps atomic.Int64
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			steps.Add(run(lo, hi))
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	return steps.Load()
}

func bump(visits []int64, v graph.VertexID) {
	if visits != nil {
		atomic.AddInt64(&visits[v], 1)
	}
}

// DeepWalk runs first-order biased random walks of fixed length from every
// start (paper §2.2: "walkers stop when they reach the given path length")
// on the frontier stepping kernel. Each worker owns a contiguous walker
// range and steps it as one frontier, refilling retired slots from the
// range so the frontier stays full; walker i draws from stream
// master.Split(i), so results are independent of the worker count.
// Engines with batch draws step co-located walkers in per-vertex batches,
// engines with a staged frontier draw (core.Sampler) step the whole
// frontier one dependent load at a time, and everything else steps slot
// by slot. Bulk runs keep hub-view caches off, so every path consumes
// each walker's stream exactly as a per-walker loop would and results are
// bit-identical to slot-by-slot stepping.
func DeepWalk(e Engine, cfg Config) Result {
	cfg = cfg.withDefaults()
	starts := startsOf(cfg, e.NumVertices())
	res, master := newRun(e, cfg, starts)
	res.Steps = fanOut(len(starts), cfg.Workers, func(lo, hi int) int64 {
		return deepWalkChunk(e, cfg, starts, lo, hi, master, res.Visits)
	})
	return res
}

// deepWalkChunk steps walkers [lo, hi) of starts through one frontier.
func deepWalkChunk(e Engine, cfg Config, starts []graph.VertexID, lo, hi int, master *xrand.RNG, visits []int64) int64 {
	k := newStepKernel(e, fabric.CacheSpec{Off: true})
	capacity := hi - lo
	if capacity > kernelBatch {
		capacity = kernelBatch
	}
	f := getFrontier(capacity)
	defer putFrontier(f)
	hops := make([]int, capacity)
	var steps int64
	next := lo // next unlaunched walker
	n := 0     // live slots
	for {
		for n < capacity && next < hi {
			s := starts[next]
			f.cur[n] = s
			master.SplitInto(uint64(next), f.slotRNG(n))
			hops[n] = 0
			bump(visits, s)
			next++
			n++
		}
		if n == 0 {
			return steps
		}
		f.n = n
		k.stepBatch(f)
		for i := 0; i < n; {
			if f.ok[i] {
				steps++
				hops[i]++
				f.cur[i] = f.next[i]
				bump(visits, f.cur[i])
				if hops[i] < cfg.Length {
					i++
					continue
				}
			}
			n-- // retire slot i (dead end or full length)
			f.swap(i, n)
			hops[i], hops[n] = hops[n], hops[i]
		}
	}
}

// node2vecRejectionCap bounds second-order rejection rounds before falling
// back to accepting the static proposal; acceptance is at least
// min(1/p,1,1/q)/max(1/p,1,1/q) per round, so the cap is effectively
// unreachable and exists to bound the tail deterministically.
const node2vecRejectionCap = 256

// Node2Vec runs second-order walks using the KnightKing approach the paper
// adopts (§7.3): sample a candidate from the static distribution, then
// accept with probability f(prev, v)/max(f), where f is Equation 1.
func Node2Vec(e Engine, cfg Config) Result {
	cfg = cfg.withDefaults()
	invP, invQ := 1/cfg.P, 1/cfg.Q
	maxF := invP
	if 1 > maxF {
		maxF = 1
	}
	if invQ > maxF {
		maxF = invQ
	}
	return runParallel(e, cfg, func(start graph.VertexID, r *xrand.RNG, visits []int64) int64 {
		prev := graph.VertexID(0)
		hasPrev := false
		cur := start
		bump(visits, cur)
		var steps int64
		for hop := 0; hop < cfg.Length; hop++ {
			var next graph.VertexID
			if !hasPrev {
				v, ok := e.Sample(cur, r)
				if !ok {
					break
				}
				next = v
			} else {
				accepted := false
				for round := 0; round < node2vecRejectionCap; round++ {
					v, ok := e.Sample(cur, r)
					if !ok {
						return steps
					}
					f := invQ // distance 2 by default
					if v == prev {
						f = invP // distance 0: backtrack
					} else if e.HasEdge(prev, v) || e.HasEdge(v, prev) {
						f = 1 // distance 1
					}
					if r.Float64()*maxF < f {
						next = v
						accepted = true
						break
					}
				}
				if !accepted {
					v, ok := e.Sample(cur, r)
					if !ok {
						return steps
					}
					next = v
				}
			}
			steps++
			prev, hasPrev = cur, true
			cur = next
			bump(visits, cur)
		}
		return steps
	})
}

// PPR runs personalized-PageRank walks: from each start, walk until a
// geometric termination coin (probability TermProb per step) or a dead end;
// the visit frequencies estimate PPR values (paper §1). Length caps the
// walk as a safety bound at 64× the expected length.
func PPR(e Engine, cfg Config) Result {
	cfg = cfg.withDefaults()
	maxLen := cfg.Length * 64
	return runParallel(e, cfg, func(start graph.VertexID, r *xrand.RNG, visits []int64) int64 {
		cur := start
		bump(visits, cur)
		var steps int64
		for int(steps) < maxLen {
			if r.Float64() < cfg.TermProb {
				break
			}
			next, ok := e.Sample(cur, r)
			if !ok {
				break
			}
			steps++
			cur = next
			bump(visits, cur)
		}
		return steps
	})
}

// SimpleSampling is the paper's random_walk_simple_sampling kernel: Length
// independent one-hop samples from each start. It isolates raw sampling
// throughput (Figure 16(b)).
func SimpleSampling(e Engine, cfg Config) Result {
	cfg = cfg.withDefaults()
	return runParallel(e, cfg, func(start graph.VertexID, r *xrand.RNG, visits []int64) int64 {
		var steps int64
		for i := 0; i < cfg.Length; i++ {
			v, ok := e.Sample(start, r)
			if !ok {
				break
			}
			steps++
			bump(visits, v)
		}
		return steps
	})
}

// DeepWalkPaths runs DeepWalk and streams every completed path to emit.
// The slice passed to emit is reused between calls; copy it to retain.
// Paths are what DeepWalk feeds to SkipGram training (paper §2.2: "the
// paths are treated as sentences"). Paths are emitted in start order, one
// walker at a time on the calling goroutine, so Config.Workers is ignored;
// use DeepWalk for throughput measurements.
func DeepWalkPaths(e Engine, cfg Config, emit func(path []graph.VertexID)) Result {
	cfg = cfg.withDefaults()
	starts := startsOf(cfg, e.NumVertices())
	master := xrand.New(cfg.Seed)
	res := Result{Walkers: len(starts)}
	buf := make([]graph.VertexID, 0, cfg.Length+1)
	for i, start := range starts {
		buf = walkPath(e.Sample, start, cfg.Length, master.Split(uint64(i)), buf)
		res.Steps += int64(len(buf) - 1)
		emit(buf)
	}
	return res
}

// App identifies one of the paper's application kernels.
type App uint8

const (
	// AppDeepWalk is biased DeepWalk.
	AppDeepWalk App = iota
	// AppNode2Vec is second-order node2vec.
	AppNode2Vec
	// AppPPR is personalized PageRank.
	AppPPR
	// AppSimple is the simple-sampling kernel.
	AppSimple
)

func (a App) String() string {
	switch a {
	case AppDeepWalk:
		return "DeepWalk"
	case AppNode2Vec:
		return "node2vec"
	case AppPPR:
		return "PPR"
	case AppSimple:
		return "simple"
	default:
		return fmt.Sprintf("App(%d)", uint8(a))
	}
}

// Run dispatches to the kernel selected by app.
func Run(app App, e Engine, cfg Config) Result {
	switch app {
	case AppDeepWalk:
		return DeepWalk(e, cfg)
	case AppNode2Vec:
		return Node2Vec(e, cfg)
	case AppPPR:
		return PPR(e, cfg)
	case AppSimple:
		return SimpleSampling(e, cfg)
	default:
		panic(fmt.Sprintf("walk: unknown app %v", app))
	}
}
