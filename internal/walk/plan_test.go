package walk

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// TestShardPlanOverlayTotality pins the plan-v2 contract: ownership must
// stay total over the entire vertex-ID space under any overlay, exactly
// as the base block-cyclic map is — the PR-2 "owner index past the shard
// array" bug class must be unreachable no matter how blocks have been
// migrated or how far the live feed has grown the space.
func TestShardPlanOverlayTotality(t *testing.T) {
	plan := NewShardPlan(600, 4)
	var err error
	// Pile up overlays, including blocks far beyond the derived space
	// (growth can mint them) and a block moved twice.
	moves := []struct {
		block uint64
		to    int
	}{{0, 3}, {1, 2}, {7, 0}, {1 << 20, 1}, {0, 1}}
	epoch := uint64(0)
	for _, m := range moves {
		epoch++
		plan, err = plan.WithOverlay(m.block, m.to, epoch)
		if err != nil {
			t.Fatalf("WithOverlay(%d → %d): %v", m.block, m.to, err)
		}
	}
	if plan.Epoch != epoch {
		t.Fatalf("epoch %d, want %d", plan.Epoch, epoch)
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
		if plan.BlockOwner(plan.BlockOf(v)) != o {
			t.Fatalf("BlockOwner disagrees with Owner at %d", v)
		}
	}
	// The explicit moves landed.
	if got := plan.Owner(0); got != 1 {
		t.Fatalf("block 0 owner %d, want 1 (last move wins)", got)
	}
	lo, _ := plan.BlockRange(1 << 20)
	if got := plan.Owner(graph.VertexID(lo)); got != 1 {
		t.Fatalf("beyond-space block owner %d, want 1", got)
	}

	// The top block of the uint32 space must not wrap: its range covers
	// the topmost vertex IDs (hi = 2^32 is representable only as uint64).
	topV := ^graph.VertexID(0)
	topBlock := plan.BlockOf(topV)
	tlo, thi := plan.BlockRange(topBlock)
	if thi <= tlo {
		t.Fatalf("top block range wrapped: [%d, %d)", tlo, thi)
	}
	if uint64(topV) < tlo || uint64(topV) >= thi {
		t.Fatalf("top vertex %d outside its own block range [%d, %d)", topV, tlo, thi)
	}
}

// TestShardPlanOverlayValidation pins WithOverlay's guard rails: an
// overlay entry is the one mechanism that could break totality, so
// out-of-range owners and non-monotonic epochs must be impossible to
// install, and moving a block back home must erase its entry rather
// than pin a redundant one.
func TestShardPlanOverlayValidation(t *testing.T) {
	plan := NewShardPlan(100, 4)
	if _, err := plan.WithOverlay(2, 4, 1); err == nil {
		t.Fatal("owner == Shards accepted")
	}
	if _, err := plan.WithOverlay(2, -1, 1); err == nil {
		t.Fatal("negative owner accepted")
	}
	p1, err := plan.WithOverlay(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.WithOverlay(5, 1, 1); err == nil {
		t.Fatal("stale epoch accepted")
	}
	// The original value is untouched (plans are immutable values).
	if plan.Epoch != 0 || plan.Overlay != nil {
		t.Fatalf("receiver mutated: %+v", plan)
	}
	// Moving block 2 home again (base owner 2) erases the entry.
	p2, err := p1.WithOverlay(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Overlay != nil {
		t.Fatalf("home move left overlay %v", p2.Overlay)
	}
	if p2.Owner(graph.VertexID(2*p2.RangeSize)) != 2 {
		t.Fatal("home move did not restore base ownership")
	}
}

// TestVisitCounterGrowthWithOverlay replays the PR-2 regression shape
// through the overlay path: a walker tallying visits at vertices the
// live feed minted (beyond every pre-sized structure) while the plan
// carries an overlay must neither panic nor misroute.
func TestVisitCounterGrowthWithOverlay(t *testing.T) {
	plan := NewShardPlan(64, 4)
	plan, err := plan.WithOverlay(plan.BlockOf(1000), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	vc := newVisitCounter(64)
	for _, v := range []graph.VertexID{0, 63, 64, 999, 1000, 5000} {
		if o := plan.Owner(v); o < 0 || o >= plan.Shards {
			t.Fatalf("Owner(%d) out of range: %d", v, o)
		}
		vc.bump(v)
	}
	counts := vc.snapshot()
	if counts[5000] != 1 || counts[1000] != 1 {
		t.Fatal("grown visit tallies lost")
	}
}

// TestHelloOverlayGobRoundTrip pins the wire form of plan v2: a session
// Hello carrying a migrated plan's overlay must gob round-trip intact
// (the tcpgob fabric ships Hello as a frame, and a daemon reconstructs
// its plan from it).
func TestHelloOverlayGobRoundTrip(t *testing.T) {
	plan := NewShardPlan(600, 4)
	var err error
	for i, mv := range []struct {
		b  uint64
		to int
	}{{0, 3}, {9, 1}, {1 << 40, 2}} {
		plan, err = plan.WithOverlay(mv.b, mv.to, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
	}
	h := fabric.Hello{
		Shards: 4, Shard: 2,
		RangeSize:   plan.RangeSize,
		NumVertices: 600,
		PlanEpoch:   plan.Epoch,
		Overlay:     plan.Overlay,
		Session:     42,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&h); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got fabric.Hello
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.PlanEpoch != plan.Epoch || len(got.Overlay) != len(plan.Overlay) {
		t.Fatalf("overlay lost: %+v", got)
	}
	rebuilt := PlanFromHello(got)
	for b, want := range plan.Overlay {
		if rebuilt.BlockOwner(b) != want {
			t.Fatalf("block %d owner %d after round-trip, want %d", b, rebuilt.BlockOwner(b), want)
		}
	}
	// A vertex far past the space still resolves in range.
	if o := rebuilt.Owner(4_000_000_000); o < 0 || o >= rebuilt.Shards {
		t.Fatalf("round-tripped plan lost totality: owner %d", o)
	}
}
