// The multi-process acceptance harness: the loopback differential test
// runs ≥2 shard daemons as *separate processes* (real `bingowalk
// -shard-serve` binaries over the TCP fabric), drives a growth-inducing
// feed and cross-shard queries through Engine.ServeRemote, and then
// requires the distributed state to match a sequential replay
// edge-for-edge plus a ≥1e5-draw chi-square over the served sampling
// distribution. It is the process-boundary extension of
// internal/walk/sharded_differential_test.go, and the body of
// `make distserve-smoke`.
//
// This file is an internal test (package bingo) so it can read the
// daemons' edge multisets back through the fabric's dump barrier
// (RemoteWalker's unexported service) without widening the public API.
package bingo

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/stats"
	"github.com/bingo-rw/bingo/internal/xrand"
)

const (
	dsRingN   = 400  // initial ring the engine snapshot bootstraps
	dsVertMax = 800  // tape references IDs up to here (growth-inducing)
	dsTapeLen = 6000 // update events streamed during serving
	dsWriters = 4
	dsShards  = 2
	dsSamples = 120000 // ≥ 1e5 chi-square draws through ServeRemote
)

// daemonBin is the bingowalk binary the process-spawning tests share. It
// lives in a package-level temp dir (a test's TempDir dies with that
// test) that TestMain removes after the run.
var daemonBin struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonBin.dir != "" {
		os.RemoveAll(daemonBin.dir)
	}
	os.Exit(code)
}

// buildDaemonBinary compiles cmd/bingowalk once per test process; every
// caller gets the same binary, or the same build error.
func buildDaemonBinary(t *testing.T) string {
	t.Helper()
	daemonBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "bingowalk-test-")
		if err != nil {
			daemonBin.err = err
			return
		}
		daemonBin.dir = dir
		daemonBin.path = filepath.Join(dir, "bingowalk")
		out, err := exec.Command("go", "build", "-o", daemonBin.path, "./cmd/bingowalk").CombinedOutput()
		if err != nil {
			daemonBin.err = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if daemonBin.err != nil {
		t.Fatalf("building bingowalk: %v", daemonBin.err)
	}
	return daemonBin.path
}

// spawnShardDaemon starts one `bingowalk -shard-serve` process on a
// kernel-assigned port and scrapes the announced listen address. The
// returned wait function blocks for (and asserts) a clean exit.
func spawnShardDaemon(t *testing.T, bin string, shard, shards int) (string, func()) {
	t.Helper()
	// -sessions 1: the daemon default is to serve coordinator sessions
	// indefinitely; the harness asserts a clean exit after this one.
	cmd := exec.Command(bin,
		"-shard-serve", "-addr", "127.0.0.1:0",
		"-shard", fmt.Sprintf("%d/%d", shard, shards),
		"-sessions", "1",
		"-workers", "2")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting shard daemon %d: %v", shard, err)
	}
	killed := false
	t.Cleanup(func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndex(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("shard daemon %d never announced a listen address", shard)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	wait := func() {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			killed = true
			if err != nil {
				t.Errorf("shard daemon %d exited with error: %v", shard, err)
			}
		case <-time.After(30 * time.Second):
			t.Errorf("shard daemon %d did not exit after session close", shard)
			cmd.Process.Kill()
			<-done
			killed = true
		}
	}
	return addr, wait
}

// buildDistTape generates a growth-inducing public update tape over
// [0, numVertices) in which every (src,dst) pair has at most one live
// instance at any point (deletions are unambiguous, so any valid replay
// agrees edge-for-edge), plus a sprinkle of not-found deletions for the
// tolerant path. Integer weights keep the public→internal conversion
// exact.
func buildDistTape(n, numVertices int, seed uint64) []Update {
	r := xrand.New(seed)
	type pair struct{ src, dst VertexID }
	live := make([]pair, 0, n)
	liveAt := make(map[pair]int, n)
	tape := make([]Update, 0, n)
	for len(tape) < n {
		roll := r.Float64()
		switch {
		case roll < 0.25 && len(live) > 8:
			i := r.Intn(len(live))
			p := live[i]
			last := len(live) - 1
			live[i] = live[last]
			liveAt[live[i]] = i
			live = live[:last]
			delete(liveAt, p)
			tape = append(tape, Delete(p.src, p.dst))
		case roll < 0.30:
			p := pair{VertexID(r.Intn(numVertices)), VertexID(r.Intn(numVertices))}
			if _, ok := liveAt[p]; ok {
				continue
			}
			tape = append(tape, Delete(p.src, p.dst))
		default:
			p := pair{VertexID(r.Intn(numVertices)), VertexID(r.Intn(numVertices))}
			if _, ok := liveAt[p]; ok {
				continue
			}
			liveAt[p] = len(live)
			live = append(live, p)
			tape = append(tape, Insert(p.src, p.dst, float64(1+r.Intn(1000))))
		}
	}
	return tape
}

type dsEdge struct {
	src, dst graph.VertexID
	bias     uint64
}

func dsFlatten(out []dsEdge, g *graph.CSR) []dsEdge {
	for u := 0; u < g.NumVertices(); u++ {
		vid := graph.VertexID(u)
		dsts := g.Neighbors(vid)
		biases := g.Biases(vid)
		for i := range dsts {
			out = append(out, dsEdge{src: vid, dst: dsts[i], bias: biases[i]})
		}
	}
	return out
}

func dsSort(es []dsEdge) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.bias < b.bias
	})
}

func TestDistServeLoopbackDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard-daemon processes and draws 120k samples over TCP")
	}
	t.Parallel()
	bin := buildDaemonBinary(t)
	addrs := make([]string, dsShards)
	waits := make([]func(), dsShards)
	for i := 0; i < dsShards; i++ {
		addrs[i], waits[i] = spawnShardDaemon(t, bin, i, dsShards)
	}

	// The coordinator's engine: a directed ring over the initial space.
	ring := make([]Edge, dsRingN)
	for i := range ring {
		ring[i] = Edge{Src: VertexID(i), Dst: VertexID((i + 1) % dsRingN), Weight: 1}
	}
	eng, err := FromEdges(ring)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := eng.ServeRemote(addrs, RemoteOptions{WalkLength: 16, Seed: 0xD157})
	if err != nil {
		t.Fatalf("ServeRemote: %v", err)
	}

	// Stream the growth tape through dsWriters writers, partitioned by
	// source (each source's events stay with one writer, in tape order —
	// the contract the differential-equivalence argument needs), while
	// query walkers cross shard and process boundaries.
	tape := buildDistTape(dsTapeLen, dsVertMax, 0xD15D)
	parts := make([][]Update, dsWriters)
	for _, up := range tape {
		w := int(up.Src) % dsWriters
		parts[w] = append(parts[w], up)
	}
	var writers sync.WaitGroup
	for w := 0; w < dsWriters; w++ {
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
	var walkers sync.WaitGroup
	for q := 0; q < 4; q++ {
		walkers.Add(1)
		go func(seed uint64) {
			defer walkers.Done()
			r := xrand.New(seed)
			for n := 0; ; n++ {
				if n >= 32 {
					select {
					case <-done:
						return
					default:
					}
				}
				start := VertexID(r.Intn(dsVertMax))
				path, err := rw.Query(start, 16)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
			}
		}(0xFACE + uint64(q))
	}
	writers.Wait()
	close(done)
	walkers.Wait()
	if err := rw.Sync(); err != nil {
		t.Fatalf("Sync after feed: %v", err)
	}
	st := rw.Stats()
	t.Logf("replayed %d updates under %d writers across %d daemon processes (%d queries, %d transfers, ratio %.3f)",
		st.Updates, dsWriters, dsShards, st.Queries, st.Transfers, st.TransferRatio())
	// Bootstrap ships the ring as snapshot (Boot) batches, which are
	// excluded from the update tally — Updates counts the tape alone.
	if want := int64(dsTapeLen); st.Updates != want || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want %d updates (tape only; bootstrap is snapshot traffic), 0 dropped", st, want)
	}
	if st.Transfers == 0 {
		t.Fatal("no cross-process walker transfers — the partition topology was not exercised")
	}
	if rw.NumVertices() <= dsRingN {
		t.Fatal("no daemon grew beyond the initial space — tape not growth-inducing")
	}

	// Sequential ground truth: ring + tape, one goroutine, streaming
	// path, over a space pre-sized to the tape's maximum.
	seqUps := make([]Update, 0, dsRingN+dsTapeLen)
	for _, e := range ring {
		seqUps = append(seqUps, Insert(e.Src, e.Dst, e.Weight))
	}
	seqUps = append(seqUps, tape...)
	internal, err := toInternalUpdates(false, seqUps)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.New(dsVertMax, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ApplyUpdatesStreaming(internal); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}

	// Chi-square the served sampling distribution against the replay's
	// exact probabilities on the highest-degree vertices. Every draw is a
	// full ServeRemote round trip: Query(u, 1) routes to the owner
	// daemon, samples one hop, and retires back over TCP.
	type cand struct {
		u graph.VertexID
		d int
	}
	var cands []cand
	for u := 0; u < dsVertMax; u++ {
		if d := seq.Degree(graph.VertexID(u)); d >= 4 {
			cands = append(cands, cand{graph.VertexID(u), d})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d > cands[j].d })
	if len(cands) > 8 {
		cands = cands[:8]
	}
	if len(cands) == 0 {
		t.Fatal("no test vertices with degree ≥ 4 — tape generator broken")
	}
	perVertex := dsSamples / len(cands)
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
		const par = 16
		for g := 0; g < par; g++ {
			n := perVertex / par
			if g < perVertex%par {
				n++
			}
			drawers.Add(1)
			go func(n int) {
				defer drawers.Done()
				local := make([]int64, len(dsts))
				for i := 0; i < n; i++ {
					path, err := rw.Query(c.u, 1)
					if err != nil {
						t.Errorf("vertex %d: Query: %v", c.u, err)
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
			}(n)
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
			t.Errorf("vertex %d (degree %d): chi-square stat %.2f p=%.2e — served distribution diverges from sequential replay",
				c.u, c.d, stat, p)
		}
	}

	// Edge-for-edge: the union of the daemons' live edge multisets (read
	// back through the fabric's dump barrier) vs the sequential replay.
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

	if err := rw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, wait := range waits {
		wait()
	}
}
