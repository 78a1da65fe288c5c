// The real-process query-tier scale-out smoke: shard daemons run as
// separate `bingowalk -shard-serve` processes, one write session owns
// ingest through Engine.ServeRemote, and two bingo.AttachReader
// read-coordinators join the same daemons over their own TCP sessions.
// The readers serve queries while the write session streams a growth
// tape; afterwards bounded staleness must hold through each reader
// (WaitApplied past the writer's post-Sync stamp), a chi-square drawn
// through the readers must match the sequential replay's exact
// probabilities, and the daemons' edge multisets must equal the replay
// edge-for-edge. This is the process-boundary extension of
// internal/walk/multicoord_differential_test.go and the second half of
// `make coord-smoke` (which runs it under -race — hence the modest draw
// count; the full 120k-draw differential lives in the internal test).
//
// Package bingo (internal test) for the same reason as distserve_test.go:
// the edge dump and the writer's applied stamp are read through the
// unexported services without widening the public API.
package bingo

import (
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const (
	csRingN   = 400
	csVertMax = 800
	csTapeLen = 4000
	csWriters = 4
	csShards  = 2
	csReaders = 2
	csSamples = 24000 // drawn through the readers; sized for the -race run
)

func TestCoordScaleRealProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard-daemon processes and attaches read-coordinators over TCP")
	}
	t.Parallel()
	bin := buildDaemonBinary(t)
	addrs := make([]string, csShards)
	waits := make([]func(), csShards)
	for i := 0; i < csShards; i++ {
		addrs[i], waits[i] = spawnShardDaemon(t, bin, i, csShards)
	}

	ring := make([]Edge, csRingN)
	for i := range ring {
		ring[i] = Edge{Src: VertexID(i), Dst: VertexID((i + 1) % csRingN), Weight: 1}
	}
	eng, err := FromEdges(ring)
	if err != nil {
		t.Fatal(err)
	}
	// The write session must be live before any reader can attach — a
	// reader joins the *active* serving session, it cannot create one.
	rw, err := eng.ServeRemote(addrs, RemoteOptions{WalkLength: 16, Seed: 0xC05D})
	if err != nil {
		t.Fatalf("ServeRemote: %v", err)
	}
	readers := make([]*ReaderWalker, csReaders)
	for i := range readers {
		rd, err := AttachReader(addrs, ReaderOptions{WalkLength: 16, Seed: 0xC0 + uint64(i)})
		if err != nil {
			t.Fatalf("AttachReader %d: %v", i, err)
		}
		readers[i] = rd
	}
	if got := readers[0].NumVertices(); got < csRingN {
		t.Fatalf("reader bootstrapped with %d vertices, want ≥ %d", got, csRingN)
	}

	// Writers stream the growth tape through the write session while
	// every reader serves its own query storm over its own TCP session.
	tape := buildDistTape(csTapeLen, csVertMax, 0xC15D)
	parts := make([][]Update, csWriters)
	for _, up := range tape {
		w := int(up.Src) % csWriters
		parts[w] = append(parts[w], up)
	}
	var writers sync.WaitGroup
	for w := 0; w < csWriters; w++ {
		writers.Add(1)
		go func(part []Update) {
			defer writers.Done()
			const chunk = 64
			for lo := 0; lo < len(part); lo += chunk {
				hi := lo + chunk
				if hi > len(part) {
					hi = len(part)
				}
				if err := rw.Feed(part[lo:hi]); err != nil {
					t.Errorf("Feed: %v", err)
					return
				}
			}
		}(parts[w])
	}
	done := make(chan struct{})
	var storms sync.WaitGroup
	for ri, rd := range readers {
		storms.Add(1)
		go func(ri int, rd *ReaderWalker) {
			defer storms.Done()
			r := xrand.New(0xFACE + uint64(ri))
			for n := 0; ; n++ {
				if n >= 32 {
					select {
					case <-done:
						return
					default:
					}
				}
				start := VertexID(r.Intn(csVertMax))
				path, err := rd.Query(start, 16)
				if err != nil {
					t.Errorf("reader %d: Query: %v", ri, err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("reader %d: path %v does not begin at %d", ri, path, start)
					return
				}
			}
		}(ri, rd)
	}
	writers.Wait()
	close(done)
	storms.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := rw.Sync(); err != nil {
		t.Fatalf("Sync after feed: %v", err)
	}

	// Bounded staleness through real processes: the writer's post-Sync
	// stamp covers the whole tape; each reader's broadcast stream must
	// deliver it, after which the reader serves nothing older.
	stamp := rw.svc.AppliedStamp()
	if stamp < int64(csTapeLen) {
		t.Fatalf("write session applied stamp %d after syncing a %d-update tape", stamp, csTapeLen)
	}
	for ri, rd := range readers {
		waitDone := make(chan error, 1)
		go func() { waitDone <- rd.WaitApplied(stamp) }()
		select {
		case err := <-waitDone:
			if err != nil {
				t.Fatalf("reader %d: WaitApplied(%d): %v", ri, stamp, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("reader %d: WaitApplied(%d) stuck; stats %+v", ri, stamp, rd.Stats())
		}
		rst := rd.Stats()
		if rst.Applied < stamp {
			t.Fatalf("reader %d: applied %d < write stamp %d", ri, rst.Applied, stamp)
		}
		if rst.Queries == 0 {
			t.Fatalf("reader %d served nothing during the tape: %+v", ri, rst)
		}
	}
	st := rw.Stats()
	t.Logf("replayed %d updates with %d attached readers across %d daemon processes; reader stats %+v / %+v",
		st.Updates, csReaders, csShards, readers[0].Stats(), readers[1].Stats())
	if st.Updates != int64(csTapeLen) || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want %d updates, 0 dropped", st, csTapeLen)
	}

	// Sequential ground truth, then chi-square the distribution served
	// through the readers (round-robin) on the highest-degree vertices.
	seqUps := make([]Update, 0, csRingN+csTapeLen)
	for _, e := range ring {
		seqUps = append(seqUps, Insert(e.Src, e.Dst, e.Weight))
	}
	seqUps = append(seqUps, tape...)
	internal, err := toInternalUpdates(false, seqUps)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.New(csVertMax, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ApplyUpdatesStreaming(internal); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}
	type cand struct {
		u graph.VertexID
		d int
	}
	var cands []cand
	for u := 0; u < csVertMax; u++ {
		if d := seq.Degree(graph.VertexID(u)); d >= 4 {
			cands = append(cands, cand{graph.VertexID(u), d})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d > cands[j].d })
	if len(cands) > 4 {
		cands = cands[:4]
	}
	if len(cands) == 0 {
		t.Fatal("no test vertices with degree ≥ 4 — tape generator broken")
	}
	perVertex := csSamples / len(cands)
	for _, c := range cands {
		slotProbs := seq.VertexProbabilities(c.u)
		probByDst := map[graph.VertexID]float64{}
		for slot, p := range slotProbs {
			probByDst[seq.Neighbor(c.u, slot)] += p
		}
		dsts := make([]graph.VertexID, 0, len(probByDst))
		for d := range probByDst {
			dsts = append(dsts, d)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		probs := make([]float64, len(dsts))
		index := make(map[graph.VertexID]int, len(dsts))
		for i, d := range dsts {
			probs[i] = probByDst[d]
			index[d] = i
		}
		observed := make([]int64, len(dsts))
		var obsMu sync.Mutex
		var drawers sync.WaitGroup
		const par = 8
		for g := 0; g < par; g++ {
			n := perVertex / par
			if g < perVertex%par {
				n++
			}
			drawers.Add(1)
			go func(g, n int) {
				defer drawers.Done()
				rd := readers[g%csReaders]
				local := make([]int64, len(dsts))
				for i := 0; i < n; i++ {
					path, err := rd.Query(c.u, 1)
					if err != nil {
						t.Errorf("vertex %d: reader Query: %v", c.u, err)
						return
					}
					if len(path) != 2 {
						t.Errorf("vertex %d: degree %d but draw returned path %v", c.u, c.d, path)
						return
					}
					slot, ok := index[path[1]]
					if !ok {
						t.Errorf("vertex %d: sampled %d, not a live neighbor", c.u, path[1])
						return
					}
					local[slot]++
				}
				obsMu.Lock()
				for i, v := range local {
					observed[i] += v
				}
				obsMu.Unlock()
			}(g, n)
		}
		drawers.Wait()
		if t.Failed() {
			t.FailNow()
		}
		stat, p, err := stats.ChiSquareGOF(observed, probs, 5)
		if err != nil {
			t.Fatalf("vertex %d: chi-square: %v", c.u, err)
		}
		if p < 1e-4 {
			t.Errorf("vertex %d (degree %d): chi-square stat %.2f p=%.2e — reader-served distribution diverges from sequential replay",
				c.u, c.d, stat, p)
		}
	}

	// Edge-for-edge through the fabric's dump barrier, then orderly
	// teardown: readers detach first (their Close must not disturb the
	// write session), the write session last, daemons exit clean.
	shardEdges, err := rw.svc.DumpEdges()
	if err != nil {
		t.Fatalf("DumpEdges: %v", err)
	}
	var got []dsEdge
	for _, es := range shardEdges {
		for _, e := range es {
			got = append(got, dsEdge{src: e.Src, dst: e.Dst, bias: e.Bias})
		}
	}
	want := dsFlatten(nil, seq.Snapshot())
	dsSort(got)
	dsSort(want)
	if len(got) != len(want) {
		t.Fatalf("edge count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge multiset diverges at %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	for ri, rd := range readers {
		if err := rd.Close(); err != nil {
			t.Fatalf("reader %d Close: %v", ri, err)
		}
		if _, err := rw.Query(VertexID(ri), 8); err != nil {
			t.Fatalf("write session Query after reader %d detached: %v", ri, err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, wait := range waits {
		wait()
	}
}
