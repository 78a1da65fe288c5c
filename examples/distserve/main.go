// Distserve: the shard fabric crossing a real process boundary. The same
// "who to follow" serving scenario as examples/shardserve, but each shard
// engine lives in its *own operating-system process*: the program forks
// itself into N shard daemons (bingo.ServeShard over the TCP fabric),
// then drives queries, a growing follow stream, and a bulk DeepWalk
// through Engine.ServeRemote — one machine's lock domains become N
// processes' address spaces, with the API unchanged.
//
// Walker state (current vertex, hops left, the RNG stream itself) moves
// between the processes as binary frames over loopback TCP; graph data never
// does. New users signing up mid-flight grow each daemon's vertex space
// independently, exercising total block-cyclic ownership across the wire.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"
	"sync"

	bingo "github.com/bingo-rw/bingo"
)

const (
	seedUsers = 3000 // users present at launch
	newUsers  = 900  // users who sign up while serving (vertex-space growth)
	shards    = 3
	queries   = 3000
	clients   = 4
	feedSize  = 96
	rounds    = 60
)

var (
	daemonSpec = flag.String("shard", "", "internal: run as shard daemon K/N")
	daemonAddr = flag.String("addr", "127.0.0.1:0", "internal: daemon listen address")
)

func main() {
	flag.Parse()
	if *daemonSpec != "" {
		runDaemon(*daemonSpec, *daemonAddr)
		return
	}

	// Fork one shard daemon per partition slot and scrape the loopback
	// addresses they bind.
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	addrs := make([]string, shards)
	waits := make([]func() error, shards)
	for i := 0; i < shards; i++ {
		addrs[i], waits[i] = spawnDaemon(self, i)
	}
	fmt.Printf("spawned %d shard daemons: %s\n", shards, strings.Join(addrs, ", "))

	// Bootstrap: a follow graph among the launch-day users, streamed
	// row by row to its shards over the fabric by ServeRemote.
	r := bingo.NewRand(21)
	var edges []bingo.Edge
	for i := 0; i < 6*seedUsers; i++ {
		u := bingo.VertexID(r.Intn(seedUsers))
		v := bingo.VertexID(r.Intn(seedUsers))
		if u == v {
			continue
		}
		edges = append(edges, bingo.Edge{Src: u, Dst: v, Weight: float64(1 + r.Intn(9))})
	}
	eng, err := bingo.FromEdges(edges)
	if err != nil {
		log.Fatal(err)
	}
	rw, err := eng.ServeRemote(addrs, bingo.RemoteOptions{WalkLength: 20, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session open: %d daemons bootstrapped with %d edges\n", rw.Shards(), len(edges))

	// The follow stream: existing users follow each other, and brand-new
	// user IDs sign up mid-flight (growth on whichever daemon owns them).
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		fr := bingo.NewRand(77)
		nextUser := bingo.VertexID(seedUsers)
		for round := 0; round < rounds; round++ {
			batch := make([]bingo.Update, 0, feedSize)
			for len(batch) < feedSize {
				if fr.Coin(0.15) && int(nextUser) < seedUsers+newUsers {
					// A signup: the new user follows someone and gains a
					// follower — two edges touching an unseen vertex ID.
					known := bingo.VertexID(fr.Intn(seedUsers))
					batch = append(batch,
						bingo.Insert(nextUser, known, 1),
						bingo.Insert(known, nextUser, float64(1+fr.Intn(9))))
					nextUser++
					continue
				}
				u := bingo.VertexID(fr.Intn(seedUsers))
				v := bingo.VertexID(fr.Intn(seedUsers))
				if u == v {
					continue
				}
				batch = append(batch, bingo.Insert(u, v, float64(1+fr.Intn(9))))
			}
			if err := rw.Feed(batch); err != nil {
				log.Printf("feed: %v", err)
				return
			}
		}
	}()

	// The client fleet: recommendation walks, each one hopping between
	// daemon processes whenever it crosses a partition boundary.
	var fleet sync.WaitGroup
	for c := 0; c < clients; c++ {
		fleet.Add(1)
		go func(seed uint64) {
			defer fleet.Done()
			cr := bingo.NewRand(seed)
			for q := 0; q < queries/clients; q++ {
				start := bingo.VertexID(cr.Intn(seedUsers + newUsers))
				if _, err := rw.Query(start, 20); err != nil {
					log.Printf("query: %v", err)
					return
				}
			}
		}(uint64(c) + 100)
	}
	fleet.Wait()
	feeder.Wait()
	if err := rw.Sync(); err != nil {
		log.Fatalf("sync: %v", err)
	}

	// A bulk DeepWalk across the daemons while the session is still live:
	// one transferable walker per launch-day user.
	starts := make([]bingo.VertexID, 2000)
	for i := range starts {
		starts[i] = bingo.VertexID(i % seedUsers)
	}
	res, ts, err := rw.DeepWalk(bingo.WalkOptions{Length: 10, Starts: starts, Seed: 9})
	if err != nil {
		log.Fatalf("deepwalk: %v", err)
	}

	st := rw.Stats()
	fmt.Printf("served %d queries (%d steps) and ingested %d updates\n", st.Queries, st.Steps, st.Updates)
	fmt.Printf("walker transfer: %d cross-process hand-offs, %d local steps (ratio %.3f)\n",
		st.Transfers, st.Local, st.TransferRatio())
	fmt.Printf("bulk DeepWalk: %d walkers, %d steps (transfer ratio %.3f)\n",
		res.Walkers, res.Steps, ts.TransferRatio())
	fmt.Printf("vertex space grew %d → %d across the daemons\n", seedUsers, rw.NumVertices())

	if err := rw.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	for i, wait := range waits {
		if err := wait(); err != nil {
			log.Fatalf("daemon %d: %v", i, err)
		}
	}
	fmt.Println("session closed; all daemons exited cleanly")
}

// runDaemon is the forked child: host one shard until the parent closes
// the session.
func runDaemon(spec, addr string) {
	var k, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &k, &n); err != nil {
		log.Fatalf("bad -shard %q", spec)
	}
	st, err := bingo.ServeShard(addr, k, n, bingo.ShardServeOptions{
		Walkers:  2,
		OnListen: func(a string) { fmt.Printf("listening on %s\n", a) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "shard %d/%d done: %d steps, %d updates, %d edges over %d vertices\n",
		k, n, st.Steps, st.Updates, st.Edges, st.Vertices)
}

// spawnDaemon forks this binary as shard daemon i and scrapes its bound
// address from stdout.
func spawnDaemon(self string, i int) (string, func() error) {
	cmd := exec.Command(self, "-shard", fmt.Sprintf("%d/%d", i, shards), "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if idx := strings.LastIndex(line, "listening on "); idx >= 0 {
			go io.Copy(io.Discard, stdout)
			return strings.TrimSpace(line[idx+len("listening on "):]), cmd.Wait
		}
	}
	log.Fatalf("daemon %d never announced its address", i)
	return "", nil
}
