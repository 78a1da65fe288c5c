package walk_test

import (
	"sync"
	"testing"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
)

func newLiveEngine(t *testing.T, numVertices int) *concurrent.Engine {
	t.Helper()
	e, err := concurrent.New(numVertices, core.DefaultConfig(), concurrent.Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	// Ring plus chords so every vertex always has an out-edge.
	for i := 0; i < numVertices; i++ {
		u := graph.VertexID(i)
		if err := e.Insert(u, graph.VertexID((i+1)%numVertices), 2); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert(u, graph.VertexID((i+7)%numVertices), 1); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestLiveServiceQueryWhileFeeding(t *testing.T) {
	const nV = 256
	e := newLiveEngine(t, nV)
	svc := walk.NewLiveService(e, walk.LiveConfig{Walkers: 4, WalkLength: 24, Seed: 9})

	var feeders sync.WaitGroup
	feeders.Add(1)
	go func() {
		defer feeders.Done()
		for round := 0; round < 40; round++ {
			batch := make([]graph.Update, 0, 16)
			for i := 0; i < 8; i++ {
				u := graph.VertexID((round*8 + i) % nV)
				d := graph.VertexID((round*8 + i + 3) % nV)
				batch = append(batch,
					graph.Update{Op: graph.OpInsert, Src: u, Dst: d, Bias: 3},
					graph.Update{Op: graph.OpDelete, Src: u, Dst: d})
			}
			if err := svc.Feed(batch); err != nil {
				t.Errorf("Feed: %v", err)
				return
			}
		}
	}()

	var queriers sync.WaitGroup
	const queriesPer = 50
	for q := 0; q < 4; q++ {
		queriers.Add(1)
		go func(q int) {
			defer queriers.Done()
			for i := 0; i < queriesPer; i++ {
				start := graph.VertexID((q*queriesPer + i) % nV)
				path, err := svc.Query(start, 0)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
				if len(path) != 25 { // start + WalkLength hops; no dead ends
					t.Errorf("path length %d, want 25", len(path))
					return
				}
			}
		}(q)
	}
	queriers.Wait()
	feeders.Wait()

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := svc.Stats()
	if st.Queries != 4*queriesPer {
		t.Fatalf("Queries = %d, want %d", st.Queries, 4*queriesPer)
	}
	if st.Batches != 40 || st.Updates != 40*16 {
		t.Fatalf("ingest stats %+v, want 40 batches / %d updates", st, 40*16)
	}
	if st.Steps != st.Queries*24 {
		t.Fatalf("Steps = %d, want %d", st.Steps, st.Queries*24)
	}

	// Post-close semantics.
	if _, err := svc.Query(0, 4); err != walk.ErrLiveClosed {
		t.Fatalf("Query after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Feed(nil); err != walk.ErrLiveClosed {
		t.Fatalf("Feed after Close: %v, want ErrLiveClosed", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The feed was fully applied: every (u,u+3,3) pair was deleted again.
	e.Quiesce(func(s *core.Sampler) {
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		if n := s.NumEdges(); n != int64(2*nV) {
			t.Fatalf("NumEdges = %d, want %d (churn must cancel out)", n, 2*nV)
		}
	})
}

func TestLiveServiceBulkKernels(t *testing.T) {
	e := newLiveEngine(t, 128)
	svc := walk.NewLiveService(e, walk.LiveConfig{Walkers: 2, Seed: 3})
	defer svc.Close()

	res := svc.Bulk(walk.AppDeepWalk, walk.Config{Length: 10, Workers: 2, Seed: 5})
	if res.Walkers != 128 || res.Steps != 128*10 {
		t.Fatalf("Bulk DeepWalk: %d walkers / %d steps, want 128 / 1280", res.Walkers, res.Steps)
	}
	// The same bulk kernel through the sharded runtime, over copies of the
	// same graph's records.
	var sh *walk.ShardedLiveService
	var err error
	e.Quiesce(func(s *core.Sampler) {
		sh, err = walk.ServeSharded(s, 4, 1, func(s *core.Sampler) walk.LiveEngine {
			return concurrent.Wrap(s, concurrent.Config{})
		}, walk.ShardedLiveConfig{Seed: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	shRes, _, err := sh.DeepWalk(walk.Config{Length: 10, Seed: 5})
	if err != nil || shRes.Steps != 128*10 {
		t.Fatalf("Sharded DeepWalk steps %d (err %v), want 1280", shRes.Steps, err)
	}
}

func TestLiveServiceIngestError(t *testing.T) {
	e := newLiveEngine(t, 16)
	svc := walk.NewLiveService(e, walk.LiveConfig{Walkers: 1})
	if err := svc.Feed([]graph.Update{{Op: graph.OpInsert, Src: 0, Dst: 1, Bias: 0}}); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := svc.Close(); err == nil {
		t.Fatalf("Close returned nil, want the zero-bias ingest error")
	}
}

// TestLiveServiceDroppedBatches pins the failed-batch accounting: a batch
// that fails validation is dropped whole and counted, the FIRST error is
// what Err and Close report, and later good batches still apply — one
// malformed batch must not silently void the rest of the feed.
func TestLiveServiceDroppedBatches(t *testing.T) {
	e := newLiveEngine(t, 16)
	svc := walk.NewLiveService(e, walk.LiveConfig{Walkers: 1})

	good := func(src, dst graph.VertexID) []graph.Update {
		return []graph.Update{{Op: graph.OpInsert, Src: src, Dst: dst, Bias: 5}}
	}
	feeds := [][]graph.Update{
		good(0, 9),
		{{Op: graph.OpInsert, Src: 1, Dst: 2, Bias: 0}},                                                 // zero bias: dropped (first error)
		{{Op: graph.OpInsert, Src: 2, Dst: 3, Bias: 0}, {Op: graph.OpInsert, Src: 3, Dst: 12, Bias: 7}}, // dropped whole
		good(4, 12),
	}
	for _, b := range feeds {
		if err := svc.Feed(b); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	err := svc.Close()
	if err == nil {
		t.Fatal("Close returned nil, want first ingest error")
	}
	if got := svc.Err(); got != err {
		t.Fatalf("Err() = %v, Close = %v — first-error semantics broken", got, err)
	}

	st := svc.Stats()
	if st.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", st.Dropped)
	}
	if st.Batches != 2 || st.Updates != 2 {
		t.Fatalf("Batches/Updates = %d/%d, want 2/2 (good batches must survive a bad one)", st.Batches, st.Updates)
	}
	// The good batches applied; nothing from the dropped ones leaked in.
	if !e.HasEdge(0, 9) || !e.HasEdge(4, 12) {
		t.Fatal("good batches after the failure were not applied")
	}
	if e.HasEdge(3, 12) {
		t.Fatal("an update from a dropped batch leaked into the engine")
	}
}
