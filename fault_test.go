// The failover acceptance harness: a replicated two-daemon session
// (replication factor 2 over the TCP fabric) ingests a hub-skewed growth
// tape while one `bingowalk -shard-serve` process is killed with SIGKILL
// mid-tape and later restarted on the same address. The session must
// complete — promoted replica serving, walkers re-routed, the restarted
// daemon re-primed from live snapshots — and the surviving state must
// match a sequential replay edge-for-edge, with a ≥1e5-draw chi-square
// over the served sampling distribution. It is the process-boundary
// extension of internal/walk's chaos-fabric failover differential, and
// the body of `make fault-smoke`.
package bingo

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
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
	ftRingN   = 400 // initial ring the engine snapshot bootstraps
	ftVertMax = 800 // tape references IDs up to here (growth-inducing)
	ftTapeLen = 6000
	ftHubs    = 8      // tape sources skew toward this many hub vertices
	ftShards  = 2      // two daemons, every block on both (R = 2)
	ftSamples = 120000 // ≥ 1e5 chi-square draws after the failover
	ftVictim  = 1
)

// buildHubTape is buildDistTape with hub skew: half the inserts leave
// one of a few hub vertices, so the killed daemon takes hot adjacency
// state (large hub rows mid-mutation) down with it — the worst case for
// snapshot re-priming. The unique-live-pair invariant still holds, so
// any valid replay agrees edge-for-edge.
func buildHubTape(n, numVertices, hubs int, seed uint64) []Update {
	r := xrand.New(seed)
	type pair struct{ src, dst VertexID }
	live := make([]pair, 0, n)
	liveAt := make(map[pair]int, n)
	tape := make([]Update, 0, n)
	pick := func() pair {
		src := VertexID(r.Intn(numVertices))
		if r.Float64() < 0.5 {
			src = VertexID(r.Intn(hubs) * (numVertices / hubs)) // spread hubs across blocks
		}
		return pair{src, VertexID(r.Intn(numVertices))}
	}
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
			p := pick()
			if _, ok := liveAt[p]; ok {
				continue
			}
			tape = append(tape, Delete(p.src, p.dst))
		default:
			p := pick()
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

func TestFaultKillDaemonMidTape(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs shard-daemon processes, draws 120k samples over TCP")
	}
	t.Parallel()
	bin := buildDaemonBinary(t)
	addrs := make([]string, ftShards)
	daemons := make([]*shardDaemon, ftShards)
	for i := 0; i < ftShards; i++ {
		daemons[i] = spawnShardDaemonAt(t, bin, i, ftShards, "127.0.0.1:0")
		addrs[i] = daemons[i].addr
	}

	ring := make([]Edge, ftRingN)
	for i := range ring {
		ring[i] = Edge{Src: VertexID(i), Dst: VertexID((i + 1) % ftRingN), Weight: 1}
	}
	eng, err := FromEdges(ring)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := eng.ServeRemote(addrs, RemoteOptions{WalkLength: 16, Seed: 0xFA57, Replicas: 2})
	if err != nil {
		t.Fatalf("ServeRemote: %v", err)
	}

	tape := buildHubTape(ftTapeLen, ftVertMax, ftHubs, 0xFA17)
	feed := func(part []Update) {
		const chunk = 64
		for lo := 0; lo < len(part); lo += chunk {
			hi := lo + chunk
			if hi > len(part) {
				hi = len(part)
			}
			if err := rw.Feed(part[lo:hi]); err != nil {
				t.Fatalf("Feed: %v", err)
			}
		}
	}

	// Query walkers cross process boundaries (and the failover) for the
	// whole run; under replication every query must still complete.
	qdone := make(chan struct{})
	var walkers sync.WaitGroup
	for q := 0; q < 2; q++ {
		walkers.Add(1)
		go func(seed uint64) {
			defer walkers.Done()
			r := xrand.New(seed)
			for n := 0; ; n++ {
				if n >= 16 {
					select {
					case <-qdone:
						return
					default:
					}
				}
				start := VertexID(r.Intn(ftVertMax))
				path, err := rw.Query(start, 16)
				if err != nil {
					t.Errorf("Query during failover: %v", err)
					return
				}
				if len(path) == 0 || path[0] != start {
					t.Errorf("path %v does not begin at %d", path, start)
					return
				}
			}
		}(0xFACE + uint64(q))
	}

	third := len(tape) / 3
	feed(tape[:third])
	if err := rw.Sync(); err != nil {
		t.Fatalf("Sync before kill: %v", err)
	}

	// kill -9: no shutdown handshake, no flush — the daemon's engine
	// state and in-flight walkers are simply gone.
	daemons[ftVictim].kill(t)
	feed(tape[third : 2*third])

	// The replacement binds the dead daemon's address; the coordinator's
	// background redial finds it and re-primes it from shard 0's
	// snapshots before putting it back in rotation.
	daemons[ftVictim] = spawnShardDaemonAt(t, bin, ftVictim, ftShards, daemons[ftVictim].addr)
	deadline := time.Now().Add(60 * time.Second)
	for rw.Stats().Failover.Rejoins == 0 {
		if time.Now().After(deadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			t.Fatalf("rejoin did not complete; failover tallies %+v", rw.Stats().Failover)
		}
		time.Sleep(20 * time.Millisecond)
	}

	feed(tape[2*third:])
	close(qdone)
	walkers.Wait()
	if err := rw.Sync(); err != nil {
		t.Fatalf("Sync after rejoin: %v", err)
	}
	st := rw.Stats()
	t.Logf("failover tallies %+v, backpressure %+v", st.Failover, st.Backpressure)
	if st.Failover.Deaths == 0 || st.Failover.Rejoins == 0 {
		t.Fatalf("failover tallies %+v: want at least one death and one completed rejoin", st.Failover)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d sub-batches across the failover", st.Dropped)
	}

	// Sequential ground truth: ring + tape, one goroutine, streaming
	// path, over a space pre-sized to the tape's maximum.
	seqUps := make([]Update, 0, ftRingN+ftTapeLen)
	for _, e := range ring {
		seqUps = append(seqUps, Insert(e.Src, e.Dst, e.Weight))
	}
	seqUps = append(seqUps, tape...)
	internal, err := toInternalUpdates(false, seqUps)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.New(ftVertMax, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.ApplyUpdatesStreaming(internal); err != nil {
		t.Fatalf("sequential replay: %v", err)
	}

	// Chi-square the post-failover served distribution on the hottest
	// hubs: every draw is a full round trip through whichever daemon owns
	// the vertex after the rejoin.
	type cand struct {
		u graph.VertexID
		d int
	}
	var cands []cand
	for u := 0; u < ftVertMax; u++ {
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
	perVertex := ftSamples / len(cands)
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
			t.Errorf("vertex %d (degree %d): chi-square stat %.2f p=%.2e — post-failover distribution diverges from sequential replay",
				c.u, c.d, stat, p)
		}
	}

	// Edge-for-edge: the ownership-filtered union of the daemons' dumps
	// vs the sequential replay.
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
	for _, d := range daemons {
		d.wait(t)
	}
}

// shardDaemon is one spawned `bingowalk -shard-serve` process the fault
// harness can SIGKILL and replace.
type shardDaemon struct {
	addr   string
	shard  int
	cmd    *daemonCmd
	killed bool
}

// spawnShardDaemonAt starts a daemon on the given address (":0" for
// kernel-assigned) and scrapes the announced listen address — the fixed-
// address variant spawnShardDaemon does not need, so a replacement can
// bind exactly where its predecessor died.
func spawnShardDaemonAt(t *testing.T, bin string, shard, shards int, addr string) *shardDaemon {
	t.Helper()
	cmd := startDaemonCmd(t, bin,
		"-shard-serve", "-addr", addr,
		"-shard", fmt.Sprintf("%d/%d", shard, shards),
		"-sessions", "1",
		"-workers", "2")
	got := cmd.scrapeListenAddr(t, shard)
	return &shardDaemon{addr: got, shard: shard, cmd: cmd}
}

// kill SIGKILLs the daemon — no shutdown handshake — and reaps it.
func (d *shardDaemon) kill(t *testing.T) {
	t.Helper()
	d.killed = true
	d.cmd.kill()
}

// wait asserts a clean exit (for daemons the test did not kill).
func (d *shardDaemon) wait(t *testing.T) {
	t.Helper()
	if d.killed {
		return
	}
	if err := d.cmd.waitFor(30 * time.Second); err != nil {
		t.Errorf("shard daemon %d: %v", d.shard, err)
	}
}

// daemonCmd wraps one spawned daemon process with address scraping and
// kill/wait plumbing.
type daemonCmd struct {
	cmd    *exec.Cmd
	stdout io.ReadCloser
	reaped bool
	mu     sync.Mutex
}

func startDaemonCmd(t *testing.T, bin string, args ...string) *daemonCmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	d := &daemonCmd{cmd: cmd, stdout: stdout}
	t.Cleanup(func() {
		d.mu.Lock()
		reaped := d.reaped
		d.mu.Unlock()
		if !reaped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return d
}

// scrapeListenAddr reads stdout until the daemon announces its listen
// address, then keeps the pipe drained in the background.
func (d *daemonCmd) scrapeListenAddr(t *testing.T, shard int) string {
	t.Helper()
	sc := bufio.NewScanner(d.stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndex(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		d.kill()
		t.Fatalf("shard daemon %d never announced a listen address", shard)
	}
	go io.Copy(io.Discard, d.stdout)
	return addr
}

// kill SIGKILLs and reaps the process.
func (d *daemonCmd) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.mu.Lock()
	d.reaped = true
	d.mu.Unlock()
}

// waitFor blocks for a clean exit up to the timeout.
func (d *daemonCmd) waitFor(timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("did not exit after session close")
	}
	d.mu.Lock()
	d.reaped = true
	d.mu.Unlock()
	return err
}
