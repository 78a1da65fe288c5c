package walk

import (
	"math"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// TestShardPlanOwnerTotal pins the block-cyclic ownership contract: inside
// the derived space it matches the classic contiguous split, and beyond it
// — the live-growth regime that used to panic — it stays in range and
// balanced.
func TestShardPlanOwnerTotal(t *testing.T) {
	p := NewShardPlan(64, 4)
	if p.RangeSize != 16 || p.Shards != 4 {
		t.Fatalf("plan = %+v, want RangeSize 16, Shards 4", p)
	}
	for v := 0; v < 64; v++ {
		if got, want := p.Owner(graph.VertexID(v)), v/16; got != want {
			t.Fatalf("Owner(%d) = %d, want contiguous %d", v, got, want)
		}
	}
	// Beyond the derived space: total, in range, block-cyclic.
	counts := make([]int, 4)
	for v := 64; v < 64+16*40; v++ {
		o := p.Owner(graph.VertexID(v))
		if o < 0 || o >= 4 {
			t.Fatalf("Owner(%d) = %d out of range", v, o)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c != 160 {
			t.Fatalf("shard %d owns %d of the overflow block, want 160 (balanced wrap)", i, c)
		}
	}
	if o := p.Owner(math.MaxUint32); o < 0 || o >= 4 {
		t.Fatalf("Owner(MaxUint32) = %d out of range", o)
	}
	// A space the shard count does not divide: still in range, and every
	// shard owns part of it.
	p = NewShardPlan(100, 4)
	seen := map[int]bool{}
	for v := 0; v < 100; v++ {
		o := p.Owner(graph.VertexID(v))
		if o < 0 || o >= p.Shards {
			t.Fatalf("Owner(%d) = %d out of range", v, o)
		}
		seen[o] = true
	}
	if len(seen) != 4 {
		t.Errorf("only %d of 4 shards own vertices", len(seen))
	}
	// Degenerate plans never divide by zero.
	if p := NewShardPlan(0, 3); p.RangeSize != 1 {
		t.Fatalf("empty-space plan RangeSize = %d, want 1", p.RangeSize)
	}
	if p := NewShardPlan(10, 0); p.Shards != 1 {
		t.Fatalf("zero-shard plan Shards = %d, want 1", p.Shards)
	}
}

// exactShardedService serves copies of s's records through the sharded
// runtime with the hub caches off, so every hop is sampled by the shard
// owning its vertex and the transfer tallies are exact.
func exactShardedService(t *testing.T, s *core.Sampler, shards int) *ShardedLiveService {
	t.Helper()
	svc, err := ServeSharded(s, shards, 1, func(s *core.Sampler) LiveEngine {
		return concurrent.Wrap(s, concurrent.Config{})
	}, ShardedLiveConfig{WalkersPerShard: 2, Cache: fabric.CacheSpec{Off: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// ringGraph builds the directed cycle 0→1→…→n-1→0 (every vertex degree 1,
// so walks are fully deterministic).
func ringGraph(t *testing.T, n int) *core.Sampler {
	t.Helper()
	s, err := core.New(n, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Insert(graph.VertexID(i), graph.VertexID((i+1)%n), 1); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestShardedDeepWalkTransfersPinned pins TransferStats on a
// deterministic topology: a 10-ring split in two (0–4 / 5–9), walked from
// vertex 0. A finished walker must retire locally — before the fix, a walk
// whose final hop crossed the boundary was still forwarded, inflating
// Transfers and paying a pointless queue hop. With the caches off every
// hop is sampled by its owner, so Local equals Steps.
func TestShardedDeepWalkTransfersPinned(t *testing.T) {
	svc := exactShardedService(t, ringGraph(t, 10), 2)

	cases := []struct {
		length           int
		transfers, steps int64
	}{
		// 10 hops from 0 visit 1..9,0: crossing into shard 1 at hop 5
		// transfers; the hop-10 crossing back to vertex 0 is the final hop
		// and retires locally.
		{length: 10, transfers: 1, steps: 10},
		// 12 hops: both crossings (hop 5 and hop 10) mid-walk transfer.
		{length: 12, transfers: 2, steps: 12},
		// 5 hops: the single crossing is the final hop — zero transfers.
		{length: 5, transfers: 0, steps: 5},
	}
	var want ShardedLiveStats
	for _, tc := range cases {
		res, stats, err := svc.DeepWalk(Config{Length: tc.length, Starts: []graph.VertexID{0}, Seed: 3})
		if err != nil {
			t.Fatalf("length %d: %v", tc.length, err)
		}
		if res.Steps != tc.steps {
			t.Errorf("length %d: steps = %d, want %d", tc.length, res.Steps, tc.steps)
		}
		if stats.Transfers != tc.transfers || stats.Local != tc.steps || stats.Remote != 0 {
			t.Errorf("length %d: transfers/local/remote = %d/%d/%d, want %d/%d/0",
				tc.length, stats.Transfers, stats.Local, stats.Remote, tc.transfers, tc.steps)
		}
		want.Steps += tc.steps
		want.Transfers += tc.transfers
	}
	// The service counters are the same retire-time tallies, accumulated.
	if st := svc.Stats(); st.Steps != want.Steps || st.Transfers != want.Transfers || st.Local != want.Steps {
		t.Errorf("service steps/transfers/local = %d/%d/%d, want %d/%d/%d",
			st.Steps, st.Transfers, st.Local, want.Steps, want.Transfers, want.Steps)
	}
}

// grownEngine models a live shard engine whose vertex space grew after
// the service was constructed: it reports the stale pre-growth size but
// walks lead well beyond it. Sampling walks the fixed chain u→u+stride.
type grownEngine struct {
	reported int // stale NumVertices
	limit    int // walks dead-end here
	stride   int
}

func (g grownEngine) Sample(u graph.VertexID, _ *xrand.RNG) (graph.VertexID, bool) {
	next := int(u) + g.stride
	if next >= g.limit {
		return 0, false
	}
	return graph.VertexID(next), true
}
func (g grownEngine) Degree(u graph.VertexID) int {
	if int(u)+g.stride >= g.limit {
		return 0
	}
	return 1
}
func (g grownEngine) HasEdge(u, dst graph.VertexID) bool {
	return int(dst) == int(u)+g.stride && int(dst) < g.limit
}
func (g grownEngine) NumVertices() int                  { return g.reported }
func (g grownEngine) ApplyUpdates([]graph.Update) error { return nil }

// TestShardedVisitsBeyondInitialSpace covers the frozen-size family of
// bugs end to end: the visits tally and the owner computation must both
// survive walks onto vertices beyond the vertex space the service saw at
// construction (index-out-of-range panics before the fix).
func TestShardedVisitsBeyondInitialSpace(t *testing.T) {
	e := grownEngine{reported: 8, limit: 200, stride: 7}
	// rangeSize 2: vertices ≥ 8 used to owner-overflow.
	svc, err := NewShardedLiveService([]LiveEngine{e, e, e, e}, NewShardPlan(e.reported, 4),
		ShardedLiveConfig{WalkersPerShard: 1, Cache: fabric.CacheSpec{Off: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	res, stats, err := svc.DeepWalk(Config{
		Length:      40,
		Starts:      []graph.VertexID{0, 1, 2, 3},
		Seed:        11,
		CountVisits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each walk 0..3 + 7k dead-ends just below 200: 28 hops from 0/1/2/3.
	wantSteps := int64(4 * 28)
	if res.Steps != wantSteps {
		t.Fatalf("steps = %d, want %d", res.Steps, wantSteps)
	}
	if stats.Transfers == 0 {
		t.Fatal("stride-7 chains over rangeSize-2 shards must transfer")
	}
	if len(res.Visits) < 198 {
		t.Fatalf("visits tally stopped at %d entries, want growth past 197", len(res.Visits))
	}
	// The tally must hold exactly the visited chains: v ≡ start (mod 7).
	for v, c := range res.Visits {
		want := int64(0)
		if v%7 <= 3 && v < 200 {
			want = 1
		}
		if c != want {
			t.Fatalf("visits[%d] = %d, want %d", v, c, want)
		}
	}
}

// TestShardedMatchesUnsharded runs the same seeded bulk walk through the
// unsharded kernel and through the sharded runtime at several shard
// counts: every walker carries its own RNG stream across hand-offs, so
// with the caches off the sampled walks — steps and per-vertex visits —
// are identical; only the execution topology differs.
func TestShardedMatchesUnsharded(t *testing.T) {
	s := buildEngine(t, 200, 3000, 33)
	plain := DeepWalk(s, Config{Length: 30, Seed: 5, CountVisits: true})
	for _, shards := range []int{1, 2, 4, 7} {
		svc := exactShardedService(t, s, shards)
		res, stats, err := svc.DeepWalk(Config{Length: 30, Seed: 5, CountVisits: true})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Steps != plain.Steps {
			t.Fatalf("shards=%d: steps %d vs %d", shards, res.Steps, plain.Steps)
		}
		for v := range plain.Visits {
			if res.Visits[v] != plain.Visits[v] {
				t.Fatalf("shards=%d: visits[%d] %d vs %d", shards, v, res.Visits[v], plain.Visits[v])
			}
		}
		if shards > 1 && stats.Transfers == 0 {
			t.Errorf("shards=%d: no walker transfers on a random graph", shards)
		}
		if shards == 1 && stats.Transfers != 0 {
			t.Error("single shard should never transfer")
		}
	}
}
