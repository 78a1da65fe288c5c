package walk

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// TestShardPlanDeadMaskTotality pins the replicated-plan contract:
// ownership must stay total over the entire vertex-ID space under any
// dead-mask, exactly as the base block-cyclic map is — an owner index
// past the shard array must be unreachable no matter which shards are
// masked or how far the live feed has grown the space. A masked base
// owner's blocks chain to the next live member of their replica group,
// and a fully-dead group falls back to its base owner.
func TestShardPlanDeadMaskTotality(t *testing.T) {
	plan := NewShardPlan(600, 4)
	plan.Replicas = 2
	var err error
	// Groups are {b%4, b%4+1}. Kill 1 and 3, fail 1 back, then kill 2:
	// group {2, 3} ends fully dead, every other group keeps a live member.
	for _, f := range []struct {
		shard int
		up    bool
	}{{1, false}, {3, false}, {1, true}, {2, false}} {
		if f.up {
			plan, err = plan.WithUp(f.shard, plan.Epoch+1)
		} else {
			plan, err = plan.WithDown(f.shard, plan.Epoch+1)
		}
		if err != nil {
			t.Fatalf("flip %+v: %v", f, err)
		}
	}
	if plan.Epoch != 4 || plan.Alive(2) || plan.Alive(3) || !plan.Alive(0) || !plan.Alive(1) {
		t.Fatalf("plan after flips: %+v", plan)
	}
	for b, want := range map[uint64]int{
		0:         0, // base live
		1:         1, // failed back
		2:         2, // group {2, 3} fully dead: base owner
		3:         0, // base 3 dead, chains to 0
		1 << 20:   0, // beyond the derived space, base 0
		1<<20 + 3: 0,
	} {
		if got := plan.BlockOwner(b); got != want {
			t.Fatalf("BlockOwner(%d) = %d, want %d", b, got, want)
		}
	}

	r := xrand.New(7)
	probes := []graph.VertexID{0, 1, 599, 600, 601, 1<<31 - 1, 1 << 31, 4_000_000_000, ^graph.VertexID(0)}
	for i := 0; i < 20000; i++ {
		probes = append(probes, graph.VertexID(r.Uint64()))
	}
	for _, v := range probes {
		o := plan.Owner(v)
		if o < 0 || o >= plan.Shards {
			t.Fatalf("Owner(%d) = %d, out of range for %d shards", v, o, plan.Shards)
		}
		b := plan.BlockOf(v)
		if plan.BlockOwner(b) != o {
			t.Fatalf("BlockOwner disagrees with Owner at %d", v)
		}
		if !plan.InGroup(b, o) {
			t.Fatalf("Owner(%d) = %d is outside block %d's replica group", v, o, b)
		}
	}

	// The top block of the uint32 space must not wrap: its range covers
	// the topmost vertex IDs (hi = 2^32 is representable only as uint64).
	topV := ^graph.VertexID(0)
	tlo, thi := plan.BlockRange(plan.BlockOf(topV))
	if thi <= tlo {
		t.Fatalf("top block range wrapped: [%d, %d)", tlo, thi)
	}
	if uint64(topV) < tlo || uint64(topV) >= thi {
		t.Fatalf("top vertex %d outside its own block range [%d, %d)", topV, tlo, thi)
	}
}

// TestShardPlanDeadMaskValidation pins WithDown/WithUp's guard rails:
// out-of-range shards and non-monotonic epochs are refused, the
// receiver is never mutated (plans are immutable values), and a
// failback restores base ownership.
func TestShardPlanDeadMaskValidation(t *testing.T) {
	plan := NewShardPlan(100, 4)
	plan.Replicas = 2
	for _, s := range []int{-1, 4, 64} {
		if _, err := plan.WithDown(s, 1); err == nil {
			t.Fatalf("WithDown(%d) accepted", s)
		}
		if _, err := plan.WithUp(s, 1); err == nil {
			t.Fatalf("WithUp(%d) accepted", s)
		}
	}
	p1, err := plan.WithDown(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.WithDown(1, 1); err == nil {
		t.Fatal("stale epoch accepted by WithDown")
	}
	if _, err := p1.WithUp(2, 1); err == nil {
		t.Fatal("stale epoch accepted by WithUp")
	}
	if plan.Epoch != 0 || plan.DeadMask != 0 {
		t.Fatalf("receiver mutated: %+v", plan)
	}
	v := graph.VertexID(2 * p1.RangeSize) // block 2, base owner 2
	if got := p1.Owner(v); got != 3 {
		t.Fatalf("dead base owner's vertex served by %d, want replica 3", got)
	}
	p2, err := p1.WithUp(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.DeadMask != 0 || p2.Owner(v) != 2 {
		t.Fatalf("failback did not restore base ownership: %+v owner %d", p2, p2.Owner(v))
	}
}

// TestVisitCounterGrowthWithDeadMask replays the frozen-size regression
// shape under a masked plan: a walker tallying visits at vertices the
// live feed minted (beyond every pre-sized structure) while a shard is
// masked dead must neither panic nor misroute.
func TestVisitCounterGrowthWithDeadMask(t *testing.T) {
	plan := NewShardPlan(64, 4)
	plan.Replicas = 2
	plan, err := plan.WithDown(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	vc := newVisitCounter(64)
	for _, v := range []graph.VertexID{0, 63, 64, 999, 1000, 5000} {
		if o := plan.Owner(v); o < 0 || o >= plan.Shards || o == 0 {
			t.Fatalf("Owner(%d) = %d: out of range or the masked shard", v, o)
		}
		vc.bump(v)
	}
	counts := vc.snapshot()
	if counts[5000] != 1 || counts[1000] != 1 {
		t.Fatal("grown visit tallies lost")
	}
}
