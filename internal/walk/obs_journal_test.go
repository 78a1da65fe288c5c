// Event-journal ordering test: the failover protocol's guarantee (death
// before promotion before rejoin) must be visible in the journal in
// exactly that order, since the journal is what an operator reads to
// reconstruct an incident.
package walk

import (
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/concurrent"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/fabric/chaos"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
)

// obsRingCSR builds the directed ring 0→1→…→n-1→0.
func obsRingCSR(t *testing.T, n int) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n), Bias: 1}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// firstIndexByKind returns the position of the first event of each kind
// in evs (-1 when absent), optionally filtered to one shard (-2 = any).
func firstIndexByKind(evs []obs.Event, kind string, shard int) int {
	for i, e := range evs {
		if e.Kind == kind && (shard == -2 || e.Shard == shard) {
			return i
		}
	}
	return -1
}

// TestJournalFailoverOrdering kills a replicated shard over the chaos
// fabric, restarts it, and requires the journal to narrate the incident
// in protocol order: the death is masked first, the replica promotion is
// implied by the same flip, and the rejoin lands only after re-priming.
func TestJournalFailoverOrdering(t *testing.T) {
	const (
		n      = 120
		shards = 3
		victim = 1
	)
	g := obsRingCSR(t, n)
	plan := NewShardPlan(n, shards)
	plan.Replicas = 2
	fab := chaos.New(shards)
	nodeDone := make([]chan struct{}, shards)
	runNode := func(i int, port fabric.ShardPort) chan struct{} {
		s, err := core.New(n, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := RunShardNode(concurrent.Wrap(s, concurrent.Config{}), plan, i, port, 1, fabric.CacheSpec{}); err != nil {
				t.Logf("shard %d node exited: %v", i, err)
			}
		}()
		return done
	}
	for i := 0; i < shards; i++ {
		nodeDone[i] = runNode(i, fab.ShardPort(i))
	}
	src, err := core.NewFromCSR(g, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ServeShardedOver(fab.CoordPort(), nil, src, plan, ShardedLiveConfig{WalkLength: 8, Seed: 11})
	if err != nil {
		t.Fatalf("ServeShardedOver: %v", err)
	}

	seq0 := obs.Log.Seq()
	fab.Kill(victim)
	select {
	case <-nodeDone[victim]:
	case <-time.After(20 * time.Second):
		t.Fatal("killed shard node did not exit")
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Failover.Deaths == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("death never observed; tallies %+v", svc.Stats().Failover)
		}
		time.Sleep(5 * time.Millisecond)
	}
	port, err := fab.Restart(victim)
	if err != nil {
		t.Fatal(err)
	}
	nodeDone[victim] = runNode(victim, port)
	for svc.Stats().Failover.Rejoins == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rejoin did not complete; tallies %+v", svc.Stats().Failover)
		}
		time.Sleep(5 * time.Millisecond)
	}

	evs := obs.Log.Since(seq0)
	death := firstIndexByKind(evs, obs.EvShardDeath, victim)
	promote := firstIndexByKind(evs, obs.EvShardPromote, victim)
	rejoin := firstIndexByKind(evs, obs.EvShardRejoin, victim)
	if death < 0 || promote < 0 || rejoin < 0 {
		t.Fatalf("journal missing failover events (death=%d promote=%d rejoin=%d): %+v", death, promote, rejoin, evs)
	}
	if !(death < promote && promote < rejoin) {
		t.Fatalf("failover events out of order (death=%d promote=%d rejoin=%d): %+v", death, promote, rejoin, evs)
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, d := range nodeDone {
		select {
		case <-d:
		case <-time.After(20 * time.Second):
			t.Fatalf("shard %d node did not exit after Close", i)
		}
	}
}
