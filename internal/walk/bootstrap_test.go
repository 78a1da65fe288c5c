package walk

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/inproc"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// bootstrapSource builds a sampler with a hub of degree > 1024 (so float
// mode calibrates λ above the 1024 default) whose records carry streaming
// history: a batch and single-edge churn after the bulk build leave
// hysteresis-held kinds, grown indices and hash tombstones for the copy to
// reproduce.
func bootstrapSource(t *testing.T, float bool) *core.Sampler {
	t.Helper()
	const n, hubDeg = 400, 1500
	rng := xrand.New(0xB007)
	weight := func() (uint64, float64) {
		if float {
			w := 0.05 + 200*rng.Float64()
			return uint64(w), w - float64(uint64(w))
		}
		return 1 + uint64(rng.Intn(1<<16)), 0
	}
	var edges []graph.Edge
	for i := 0; i < hubDeg; i++ {
		b, fb := weight()
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(1 + rng.Intn(n-1)), Bias: b, FBias: fb})
	}
	for u := 1; u < n; u++ {
		for k := rng.Intn(24); k > 0; k-- {
			b, fb := weight()
			edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(rng.Intn(n)), Bias: b, FBias: fb})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if float {
		cfg.FloatBias = true
		cfg.RadixBits = 2
	}
	s, err := core.NewFromCSR(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ups []graph.Update
	for i := 0; i < 3000; i++ {
		u := graph.VertexID(rng.Intn(n))
		if i%3 == 0 {
			u = 0
		}
		if d := s.Degree(u); i%2 == 1 && d > 0 {
			ups = append(ups, graph.Update{Op: graph.OpDelete, Src: u, Dst: s.Neighbor(u, int32(rng.Intn(d)))})
			continue
		}
		b, fb := weight()
		ups = append(ups, graph.Update{Op: graph.OpInsert, Src: u, Dst: graph.VertexID(rng.Intn(n)), Bias: b, FBias: fb})
	}
	if _, err := s.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Delete(0, s.Neighbor(0, int32(rng.Intn(s.Degree(0))))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return s
}

// rowState is what a copied record must reproduce for one vertex: the row
// as insert updates and a fixed-seed run of SampleSlot draws.
type rowState struct {
	row   []graph.Update
	slots []int32
}

func captureRows(s *core.Sampler) []rowState {
	out := make([]rowState, s.NumVertices())
	for u := range out {
		v := graph.VertexID(u)
		out[u].row = s.AppendRowUpdates(v, nil)
		r := xrand.New(uint64(u)*0x9E3779B97F4A7C15 + 1)
		for k := 0; k < 16; k++ {
			slot, ok := s.SampleSlot(v, r)
			if !ok {
				break
			}
			out[u].slots = append(out[u].slots, slot)
		}
	}
	return out
}

// shardSamplers reads each in-process shard's sampler under quiescence.
func shardSamplers(svc *ShardedLiveService, fn func(i int, s *core.Sampler)) {
	for i, n := range svc.nodes {
		n.e.(*concurrent.Engine).Quiesce(func(s *core.Sampler) { fn(i, s) })
	}
}

// TestServeShardedCopiesRecordsExactly is the exact oracle of the
// in-process bootstrap: every shard ServeSharded cuts from a source
// sampler holds exactly the rows its plan assigns (those of the blocks
// whose replica group it is in), with the source's
// records (same rows, same draws, same λ, invariants intact), costs no
// more than copies of those rows, and shares no storage with the source —
// churn on the source hub while the service walks leaves every shard
// unchanged.
func TestServeShardedCopiesRecordsExactly(t *testing.T) {
	for _, float := range []bool{false, true} {
		for _, shards := range []int{2, 3} {
			for _, replicas := range []int{1, 2} {
				t.Run(fmt.Sprintf("float=%v/shards=%d/replicas=%d", float, shards, replicas), func(t *testing.T) {
					checkBootstrapExact(t, float, shards, replicas)
				})
			}
		}
	}
}

func checkBootstrapExact(t *testing.T, float bool, shards, replicas int) {
	src := bootstrapSource(t, float)
	if float && src.Lambda() <= 1024 {
		t.Fatalf("source λ %v: the hub should calibrate it above the 1024 default", src.Lambda())
	}
	want := captureRows(src)
	svc, err := ServeSharded(src, shards, replicas, func(s *core.Sampler) LiveEngine {
		return concurrent.Wrap(s, concurrent.Config{})
	}, ShardedLiveConfig{WalkersPerShard: 1, Seed: 9, Cache: fabric.CacheSpec{Off: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	plan := svc.Plan()
	holds := func(i int, v graph.VertexID) bool { return slices.Contains(plan.GroupMembers(plan.BlockOf(v)), i) }
	// Every shard carries a full vertex space of headers; the rows
	// themselves are at most replica-many copies of the source's.
	headers := src.CopyRows(func(graph.VertexID) bool { return false }).Footprint()
	r := int64(min(max(replicas, 1), shards))
	bound := r*src.Footprint() + (int64(shards)-r)*headers

	// check compares every shard against the captured source state.
	check := func(when string) {
		var footprint int64
		shardSamplers(svc, func(i int, s *core.Sampler) {
			if s.Config() != src.Config() || s.Lambda() != src.Lambda() {
				t.Errorf("%s: shard %d config %+v λ %v, source %+v λ %v", when, i, s.Config(), s.Lambda(), src.Config(), src.Lambda())
			}
			if s.NumVertices() != src.NumVertices() {
				t.Errorf("%s: shard %d has %d vertices, source %d", when, i, s.NumVertices(), src.NumVertices())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("%s: shard %d: %v", when, i, err)
			}
			got := captureRows(s)
			for u := range got {
				w := want[u]
				if !holds(i, graph.VertexID(u)) {
					w = rowState{}
				}
				if !reflect.DeepEqual(got[u], w) {
					t.Errorf("%s: shard %d vertex %d: row/draws differ from the source's (held %v)", when, i, u, holds(i, graph.VertexID(u)))
					return
				}
			}
			footprint += s.Footprint()
		})
		if footprint > bound {
			t.Errorf("%s: shards hold %d B, above the %d B of %d source copies plus %d header sets", when, footprint, bound, r, int64(shards)-r)
		}
	}
	check("after bootstrap")

	// Churn the source hub while the service walks it on every shard: a
	// record that still shared storage with the source would change under
	// the shards (and race with their crews under -race).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(77)
		for i := 0; i < 400; i++ {
			if i%2 == 0 {
				if err := src.Delete(0, src.Neighbor(0, int32(rng.Intn(src.Degree(0))))); err != nil {
					t.Error(err)
					return
				}
				continue
			}
			var err error
			if float {
				err = src.InsertFloat(0, graph.VertexID(rng.Intn(src.NumVertices())), 0.5+rng.Float64())
			} else {
				err = src.Insert(0, graph.VertexID(rng.Intn(src.NumVertices())), 1+uint64(rng.Intn(1<<16)))
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if _, err := svc.Query(graph.VertexID(i%3), 12); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	check("after source churn")
}

// TestServeShardedOverBuildsRecordsExactly is the exact oracle of the
// dialed-port bootstrap: ServeShardedOver streams a NewFromCSR source's
// rows to shard nodes over the in-process fabric, into empty engines made
// with the config ServeRemote sends (the source's, Workers left to the
// host), and every shard must then hold exactly the rows its plan assigns
// — the hub's longer than one bootstrap batch included — with the
// source's records: the same rows, the same fixed-seed draws, the same
// Config and λ, invariants intact. A bulk-built source is what makes
// this exact: each row reaches its holders whole, in one batch, onto an
// empty record, so they bulk-build the record the source holds.
func TestServeShardedOverBuildsRecordsExactly(t *testing.T) {
	for _, float := range []bool{false, true} {
		src := dialedBootstrapSource(t, float)
		want := captureRows(src)
		for _, shards := range []int{2, 3} {
			for _, replicas := range []int{1, 2} {
				t.Run(fmt.Sprintf("float=%v/shards=%d/replicas=%d", float, shards, replicas), func(t *testing.T) {
					t.Parallel() // src is only read
					checkDialedBootstrapExact(t, src, want, shards, replicas)
				})
			}
		}
	}
}

// dialedBootstrapSource builds a sampler straight from a snapshot whose
// hub (vertex 0) has more edges than one bootstrap batch carries. Integer
// weights are a power of two plus a small remainder, so a row has sparse
// groups (one per power) beside dense ones (the low bits).
func dialedBootstrapSource(t *testing.T, float bool) *core.Sampler {
	t.Helper()
	const n, hubDeg = 600, fabric.BootstrapChunk + 4000
	rng := xrand.New(0xD1A1)
	weight := func() (uint64, float64) {
		if float {
			w := 0.05 + 200*rng.Float64()
			return uint64(w), w - float64(uint64(w))
		}
		return uint64(1)<<(2+rng.Intn(20)) | uint64(rng.Intn(4)), 0
	}
	var edges []graph.Edge
	for i := 0; i < hubDeg; i++ {
		b, fb := weight()
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(1 + rng.Intn(n-1)), Bias: b, FBias: fb})
	}
	for u := 1; u < n; u++ {
		for k := rng.Intn(24); k > 0; k-- {
			b, fb := weight()
			edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(rng.Intn(n)), Bias: b, FBias: fb})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if float {
		cfg.FloatBias = true
		cfg.RadixBits = 2
	}
	s, err := core.NewFromCSR(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkDialedBootstrapExact(t *testing.T, src *core.Sampler, want []rowState, shards, replicas int) {
	n := src.NumVertices()
	plan := NewShardPlan(n, shards)
	if replicas > 1 {
		plan.Replicas = replicas
	}
	cfg := src.Config()
	cfg.Workers = 0
	fab := inproc.New(shards)
	engines := make([]*concurrent.Engine, shards)
	var nodes sync.WaitGroup
	for i := range engines {
		s, err := core.New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = concurrent.Wrap(s, concurrent.Config{})
		nodes.Add(1)
		go func() {
			defer nodes.Done()
			if _, err := RunShardNode(engines[i], plan, i, fab.ShardPort(i), 1, fabric.CacheSpec{Off: true}); err != nil {
				t.Errorf("shard %d: %v", i, err)
			}
		}()
	}
	svc, err := ServeShardedOver(fab.CoordPort(), nil, src, plan, ShardedLiveConfig{Seed: 9, Cache: fabric.CacheSpec{Off: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodes.Wait()
	defer svc.Close()
	if st := svc.Stats(); st.Updates != 0 || st.Dropped != 0 {
		t.Errorf("bootstrap counted as feed: %d updates, %d dropped", st.Updates, st.Dropped)
	}
	srcCfg := src.Config()
	srcCfg.Workers = 0
	// Bound on the shards' bytes: replica-many copies of the source plus
	// a vertex space of headers on each other shard, and the append
	// rounding of rows that arrive as a single insert — those take the
	// streaming path, whose column appends round capacity up to the
	// allocator's 8-byte class (one spare 4-byte slot in the destination
	// and remainder columns).
	r := int64(min(replicas, shards))
	headers := src.CopyRows(func(graph.VertexID) bool { return false }).Footprint()
	bound := r*src.Footprint() + (int64(shards)-r)*headers
	for u := 0; u < n; u++ {
		if src.Degree(graph.VertexID(u)) == 1 {
			bound += r * 8
		}
	}
	var footprint int64
	for i, e := range engines {
		e.Quiesce(func(s *core.Sampler) {
			got := s.Config()
			got.Workers = 0
			if got != srcCfg || s.Lambda() != src.Lambda() {
				t.Errorf("shard %d config %+v λ %v, source %+v λ %v", i, got, s.Lambda(), srcCfg, src.Lambda())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("shard %d: %v", i, err)
			}
			rows := captureRows(s)
			if len(rows) != n {
				t.Errorf("shard %d has %d vertices, source %d", i, len(rows), n)
				return
			}
			for u := range rows {
				w := want[u]
				held := slices.Contains(plan.GroupMembers(plan.BlockOf(graph.VertexID(u))), i)
				if !held {
					w = rowState{}
				}
				if !reflect.DeepEqual(rows[u], w) {
					t.Errorf("shard %d vertex %d (degree %d, held %v): row/draws differ from the source's", i, u, src.Degree(graph.VertexID(u)), held)
					return
				}
			}
			footprint += s.Footprint()
		})
	}
	if footprint > bound {
		t.Errorf("shards hold %d B, above the %d B bound (%d source copies plus %d header sets)", footprint, bound, r, int64(shards)-r)
	}
}
