package walk

import (
	"fmt"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// benchHubs is the hub count of the benchmark topology; a kernelBatch
// frontier parks kernelBatch/benchHubs walkers per hub every round.
const benchHubs = 32

// benchHubEngine builds the hub-dominated engine batched draws target:
// every vertex has eight out-edges, seven into the hub set, so a frontier
// re-concentrates on the hubs every hop and never dead-ends.
func benchHubEngine(tb testing.TB, verts int) *concurrent.Engine {
	tb.Helper()
	return concurrent.Wrap(benchHubSampler(tb, verts), concurrent.Config{})
}

// benchHubSampler is benchHubEngine's graph as a bare core.Sampler.
func benchHubSampler(tb testing.TB, verts int) *core.Sampler {
	tb.Helper()
	r := xrand.New(0xbe7c4)
	edges := make([]graph.Edge, 0, verts*8)
	for v := 0; v < verts; v++ {
		for j := 0; j < 8; j++ {
			dst := graph.VertexID(r.Intn(benchHubs))
			if j == 7 {
				dst = graph.VertexID(r.Intn(verts))
			}
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: dst, Bias: uint64(1 + r.Intn(16))})
		}
	}
	g, err := graph.FromEdges(verts, edges)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// benchFrontier seats a full hub-parked frontier with per-slot streams.
func benchFrontier(f *frontier) {
	for i := 0; i < kernelBatch; i++ {
		f.cur[i] = graph.VertexID(i % benchHubs)
		f.rng[i] = xrand.New(uint64(i) + 1)
	}
	f.n = kernelBatch
}

// stepAndAdvance runs one kernel round and walks the frontier forward
// (re-parking any dead-ended slot on its home hub, which the hub topology
// never actually produces).
func stepAndAdvance(k *stepKernel, f *frontier) {
	k.stepBatch(f)
	for i := 0; i < f.n; i++ {
		if f.ok[i] {
			f.cur[i] = f.next[i]
		} else {
			f.cur[i] = graph.VertexID(i % benchHubs)
		}
	}
}

// kernelArm is one stepping setup the kernel benchmarks and budgets
// compare: the kernel over the engine with hub caches off or on, and the
// per-slot reference — the same engine with its optional capabilities
// hidden, so every round steps slot by slot.
type kernelArm struct {
	name  string
	e     Engine
	cache fabric.CacheSpec
}

func kernelArms(e Engine) []kernelArm {
	return []kernelArm{
		{"kernel/cache=off", e, fabric.CacheSpec{Off: true}},
		{"kernel/cache=on", e, fabric.CacheSpec{}},
		{"perslot", struct{ Engine }{e}, fabric.CacheSpec{Off: true}},
	}
}

// BenchmarkKernelStep measures the steady-state cost of one frontier
// round (kernelBatch steps) per kernel arm on the hub-concentrated
// frontier. allocs/op is the budget the alloc test pins: steady-state
// stepping must not allocate.
func BenchmarkKernelStep(b *testing.B) {
	e := benchHubEngine(b, 4096)
	defer obs.SetEnabled(true)
	for _, arm := range kernelArms(e) {
		for _, obsS := range []string{"on", "off"} {
			b.Run(fmt.Sprintf("%s/obs=%s", arm.name, obsS), func(b *testing.B) {
				obs.SetEnabled(obsS == "on")
				k := newStepKernel(arm.e, arm.cache)
				f := getFrontier(kernelBatch)
				defer putFrontier(f)
				benchFrontier(f)
				for w := 0; w < 64; w++ {
					stepAndAdvance(k, f)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					stepAndAdvance(k, f)
				}
				b.ReportMetric(float64(b.N)*kernelBatch/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}

// kernelObsAddsPerRound is the metrics layer's budget on one stepping
// round: one round-latency observation (two atomic adds: bucket and sum;
// rounds of denseMinBatch slots or more only) plus the rounds and steps
// counters (one each).
const kernelObsAddsPerRound = 4

// TestKernelObsOverheadBudget pins the metrics layer's cost on the
// stepping hot path as counted work rather than a wall-clock ratio (which
// race instrumentation and a shared machine both distort): a round
// allocates nothing with metrics on or off; with metrics off it records
// nothing; with metrics on it records at most kernelObsAddsPerRound atomic
// adds, counted from the registry — two per histogram observation, one per
// round for each counter that moved — and only into the kernel's own
// series, so an instrument added to the round shows up here. A full
// kernelBatch frontier and a one-slot frontier (a single-start DeepWalk's
// shape, which must not read the clock: no latency observation) are both
// checked, with the rounds and steps counters exact.
func TestKernelObsOverheadBudget(t *testing.T) {
	e := benchHubEngine(t, 2048)
	defer obs.SetEnabled(true)
	const runs = 200
	calls := int64(runs + 1) // AllocsPerRun adds one warm-up call
	kernelSeries := map[string]bool{
		"bingo_kernel_rounds_total":  true,
		"bingo_kernel_steps_total":   true,
		"bingo_kernel_round_seconds": true,
	}
	// measure runs the rounds and returns allocations and atomic adds per
	// round, the registry deltas by series, and the series outside the
	// kernel's own that moved.
	measure := func(on bool, slots int) (allocs, adds float64, delta map[string]int64, foreign []string) {
		obs.SetEnabled(on)
		k := newStepKernel(e, fabric.CacheSpec{})
		f := getFrontier(kernelBatch)
		defer putFrontier(f)
		benchFrontier(f)
		f.n = slots
		for w := 0; w < 64; w++ {
			stepAndAdvance(k, f)
		}
		before := map[string]obs.MetricSnap{}
		for _, m := range obs.Default.Snapshot() {
			before[m.Name+m.Labels] = m
		}
		allocs = testing.AllocsPerRun(runs, func() {
			for i := 0; i < f.n; i++ {
				f.cur[i] = graph.VertexID(i % benchHubs)
			}
			k.stepBatch(f)
		})
		delta = map[string]int64{}
		var total int64
		for _, m := range obs.Default.Snapshot() {
			b := before[m.Name+m.Labels]
			d := m.Value - b.Value
			if m.Kind == "histogram" {
				d = m.Count - b.Count
				total += 2 * d
			} else if d != 0 {
				total += calls
			}
			if d == 0 {
				continue
			}
			delta[m.Name] += d
			if m.Labels != "" || !kernelSeries[m.Name] {
				foreign = append(foreign, m.Name+m.Labels)
			}
		}
		return allocs, float64(total) / float64(calls), delta, foreign
	}

	for _, slots := range []int{kernelBatch, 1} {
		observed := calls // round-latency observations
		if slots < denseMinBatch {
			observed = 0
		}
		// A series moved by a goroutine another test left behind is not
		// the kernel's doing: retry a few times, a genuine regression
		// fails all.
		var fails []string
		for attempt := 0; attempt < 3; attempt++ {
			fails = fails[:0]
			allocsOff, addsOff, _, foreignOff := measure(false, slots)
			allocsOn, addsOn, delta, foreignOn := measure(true, slots)
			if allocsOff != 0 || allocsOn != 0 {
				fails = append(fails, fmt.Sprintf("allocs per round: %.2f metrics off, %.2f on, want 0", allocsOff, allocsOn))
			}
			if addsOff != 0 || len(foreignOff) > 0 {
				fails = append(fails, fmt.Sprintf("metrics off recorded %.1f atomic adds per round (%v)", addsOff, foreignOff))
			}
			if addsOn > kernelObsAddsPerRound || len(foreignOn) > 0 {
				fails = append(fails, fmt.Sprintf("metrics on: %.1f atomic adds per round, budget %d; series outside the kernel's moved: %v",
					addsOn, kernelObsAddsPerRound, foreignOn))
			}
			if delta["bingo_kernel_rounds_total"] != calls || delta["bingo_kernel_round_seconds"] != observed ||
				delta["bingo_kernel_steps_total"] != calls*int64(slots) {
				fails = append(fails, fmt.Sprintf("kernel series moved %v over %d rounds of %d steps", delta, calls, slots))
			}
			if len(fails) == 0 {
				t.Logf("%d slots, attempt %d: 0 allocs per round; %.1f atomic adds per round on (budget %d), %.1f off",
					slots, attempt, addsOn, kernelObsAddsPerRound, addsOff)
				break
			}
		}
		for _, f := range fails {
			t.Errorf("%d slots: %s", slots, f)
		}
	}
}

// TestKernelStepAllocBudget pins the satellite's allocs-per-step budget:
// after warmup (caches filled, scratch grown), a stepping round over the
// resident hot set allocates nothing on any arm — the budget of 0.5
// allocs per round tolerates only stray background noise, not
// per-step or per-run allocation regressions. The frontier re-parks on
// the hubs each round: a wandering frontier pays amortized O(degree)
// view extraction when it lands on cold hub-sized vertices, which is
// cache-fill cost, not stepping cost (the benchmark reports it).
func TestKernelStepAllocBudget(t *testing.T) {
	obs.SetEnabled(true) // the budget must hold with the metrics layer recording
	e := benchHubEngine(t, 2048)
	for _, arm := range kernelArms(e) {
		k := newStepKernel(arm.e, arm.cache)
		f := getFrontier(kernelBatch)
		benchFrontier(f)
		for w := 0; w < 64; w++ {
			stepAndAdvance(k, f)
		}
		avg := testing.AllocsPerRun(200, func() {
			for i := 0; i < f.n; i++ {
				f.cur[i] = graph.VertexID(i % benchHubs)
			}
			k.stepBatch(f)
		})
		if avg > 0.5 {
			t.Errorf("%s: %.2f allocs per %d-step round, want 0", arm.name, avg, kernelBatch)
		}
		putFrontier(f)
	}
}
