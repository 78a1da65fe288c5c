// Concurrent-scrape race test: HTTP scrapers hammer /metrics, /statusz,
// and /eventz while a sharded service walks and ingests a hub-skewed
// growth tape. Every instrument the hot paths touch is read concurrently
// by the exposition path, so `make race` (which covers this package)
// proves the lock-cheap registry design actually is data-race-free —
// not just quiet in practice.
package walk_test

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

func TestMetricsScrapeUnderLoad(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	defer srv.Close()
	obs.RegisterStatus("scrape_test", func() any { return map[string]int{"ok": 1} })
	defer obs.UnregisterStatus("scrape_test")

	const n = 750 // rbVertsMax: the hub-skew tape's growth space
	svc := ringShardService(t, n, 3, walk.ShardedLiveConfig{WalkersPerShard: 2, WalkLength: 12, Seed: 0x5c4a})
	defer svc.Close()
	tape := buildHubSkewTape(4000, 0x5c4a)

	stop := make(chan struct{})
	var scrapers, load sync.WaitGroup

	// Scrapers: all three endpoints, continuously until the load is done.
	for _, ep := range []string{"/metrics", "/statusz", "/eventz?n=64"} {
		scrapers.Add(1)
		go func(url string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + srv.Addr() + url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("read %s: %v", url, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(ep)
	}

	// Load: a feeder streams the growth tape while query clients walk.
	load.Add(1)
	go func() {
		defer load.Done()
		for lo := 0; lo < len(tape); lo += 64 {
			hi := lo + 64
			if hi > len(tape) {
				hi = len(tape)
			}
			if err := svc.Feed(tape[lo:hi]); err != nil {
				t.Errorf("Feed: %v", err)
				return
			}
		}
	}()
	for c := 0; c < 2; c++ {
		load.Add(1)
		go func(seed uint64) {
			defer load.Done()
			r := xrand.New(seed)
			for q := 0; q < 400; q++ {
				if _, err := svc.Query(graph.VertexID(r.Intn(n)), 12); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
			}
		}(0xbeef + uint64(c))
	}

	// Scrapers run for the load's whole lifetime, so every hot-path
	// instrument is read while it is being written.
	loadDone := make(chan struct{})
	go func() { defer close(loadDone); load.Wait() }()
	select {
	case <-loadDone:
	case <-time.After(120 * time.Second):
		t.Fatal("load did not finish")
	}
	close(stop)
	scrapers.Wait()

	// The scrape view must show the load it raced against.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("final GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"bingo_kernel_steps_total", "bingo_query_seconds", "bingo_ingest_updates_total"} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
}
