// Observability smoke: real `bingowalk -shard-serve` daemon processes
// (each serving its own -debug-addr plane), an in-process ServeRemote
// write session, one feed-and-query pass — then scrape /metrics,
// /statusz, and /eventz and assert the metric families the fleet
// contract promises, including the shard-labeled node tallies that ride
// barrier acks back to the coordinator. This is the body of
// `make obs-smoke`.
package bingo

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/obs"
)

// spawnShardDaemonObs is spawnShardDaemon with the observability plane
// on: it scrapes both the announced debug address and the fabric listen
// address from the daemon's stdout.
func spawnShardDaemonObs(t *testing.T, bin string, shard, shards int) (addr, debugAddr string, wait func()) {
	t.Helper()
	cmd := exec.Command(bin,
		"-shard-serve", "-addr", "127.0.0.1:0",
		"-shard", fmt.Sprintf("%d/%d", shard, shards),
		"-sessions", "1",
		"-workers", "2",
		"-debug-addr", "127.0.0.1:0")
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
	for addr == "" || debugAddr == "" {
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if i := strings.Index(line, "on http://"); i >= 0 && strings.HasPrefix(line, "debug:") {
			debugAddr = strings.TrimSuffix(strings.TrimSpace(line[i+len("on http://"):]), "/")
		}
		if i := strings.LastIndex(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
		}
	}
	if addr == "" || debugAddr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("shard daemon %d never announced its addresses (fabric %q, debug %q)", shard, addr, debugAddr)
	}
	go io.Copy(io.Discard, stdout)
	wait = func() {
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
	return addr, debugAddr, wait
}

// scrape GETs one debug endpoint and returns the body.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s%s: %v", addr, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: status %d", addr, path, resp.StatusCode)
	}
	return string(body)
}

func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard-daemon processes")
	}
	t.Parallel()
	const (
		shards  = 2
		ringN   = 200
		vertMax = 400
		tapeLen = 1500
	)
	bin := buildDaemonBinary(t)
	addrs := make([]string, shards)
	debugs := make([]string, shards)
	waits := make([]func(), shards)
	for i := 0; i < shards; i++ {
		addrs[i], debugs[i], waits[i] = spawnShardDaemonObs(t, bin, i, shards)
	}

	// The coordinator process serves its own debug plane, like a
	// `-live -connect` run with -debug-addr would.
	srv, err := obs.Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	defer srv.Close()

	ring := make([]Edge, ringN)
	for i := range ring {
		ring[i] = Edge{Src: VertexID(i), Dst: VertexID((i + 1) % ringN), Weight: 1}
	}
	eng, err := FromEdges(ring)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := eng.ServeRemote(addrs, RemoteOptions{WalkLength: 12, Seed: 0x0B5})
	if err != nil {
		t.Fatalf("ServeRemote: %v", err)
	}

	tape := buildDistTape(tapeLen, vertMax, 0x0B5D)
	for lo := 0; lo < len(tape); lo += 64 {
		hi := lo + 64
		if hi > len(tape) {
			hi = len(tape)
		}
		if err := rw.Feed(tape[lo:hi]); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	for q := 0; q < 64; q++ {
		if _, err := rw.Query(VertexID(q%vertMax), 12); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	// The Sync barrier is what carries each shard's obs sample back on
	// its ack, making the next coordinator scrape fleet-wide.
	if err := rw.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Coordinator /metrics: local families plus every shard's tallies
	// re-exposed under a shard label.
	coord := scrape(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		`bingo_query_seconds_count{svc="coord"}`,
		`bingo_ingest_updates_total{svc="coord"}`,
		`bingo_fabric_frames_total{fabric="tcp",dir="tx",kind="updates"}`,
		`bingo_node_steps_total{shard="0"}`,
		`bingo_node_steps_total{shard="1"}`,
		`bingo_node_updates_total{shard="0"}`,
	} {
		if !strings.Contains(coord, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}
	statusz := scrape(t, srv.Addr(), "/statusz")
	for _, want := range []string{`"metrics"`, `"status"`, `bingo_query_seconds`} {
		if !strings.Contains(statusz, want) {
			t.Errorf("coordinator /statusz missing %q", want)
		}
	}
	scrape(t, srv.Addr(), "/eventz") // must serve valid JSON with status 200

	// Daemon planes: each daemon's own process registry must show the
	// stepping and fabric work it did.
	for i, d := range debugs {
		dm := scrape(t, d, "/metrics")
		for _, want := range []string{
			"bingo_kernel_steps_total",
			`bingo_fabric_frames_total{fabric="tcp",dir="rx",kind="updates"}`,
		} {
			if !strings.Contains(dm, want) {
				t.Errorf("daemon %d /metrics missing %q", i, want)
			}
		}
		ds := scrape(t, d, "/statusz")
		if !strings.Contains(ds, "shard_daemon") {
			t.Errorf("daemon %d /statusz missing shard_daemon section", i)
		}
		scrape(t, d, "/eventz")
	}

	if err := rw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, wait := range waits {
		wait()
	}
}
