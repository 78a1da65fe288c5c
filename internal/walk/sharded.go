package walk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
)

// ShardPlan fixes the 1-D partition geometry of a sharded run: vertices
// are assigned to shards in contiguous blocks of RangeSize, block-cyclic.
// For the vertex space the plan was derived from, block-cyclic assignment
// coincides with the classic contiguous split (vertex v in range
// [i·RangeSize, (i+1)·RangeSize) belongs to shard i); beyond it the blocks
// wrap around, so ownership is *total* over the entire uint32 ID space.
//
// Totality is the load-bearing property under live growth: a dynamic
// engine grows its vertex space whenever an update references an unseen
// ID, and a walker can step onto such a vertex mid-walk. A plan frozen to
// "owner = v / RangeSize" would then yield an owner index ≥ Shards and
// index out of range; the block-cyclic wrap instead distributes every
// future vertex across the existing shards in balanced blocks, without
// ever reassigning a vertex the plan already placed.
//
// Plans are versioned by Epoch, which counts liveness flips: a
// replicated plan (Replicas > 1) carries a dead-mask, and a masked
// shard's blocks are served by the next live member of each block's
// replica group. The mask only re-chains ownership inside a group —
// every shard still resolves in range — so totality survives any flip
// combined with any amount of growth. Plans are immutable values:
// WithDown and WithUp return a new plan, so a plan captured by a walker
// crew or a wire frame never mutates underneath its reader; versioned
// consumers swap whole plans and compare Epoch.
type ShardPlan struct {
	// Shards is the partition count (≥ 1).
	Shards int
	// RangeSize is the contiguous block length (≥ 1).
	RangeSize int
	// Epoch versions the dead-mask: 0 is the plan a session starts from,
	// each liveness flip increments it.
	Epoch uint64
	// Replicas is the block replication factor. 0 and 1 both mean "no
	// replication". With Replicas = R > 1, block b is held by the R
	// consecutive shards starting at its base owner — the replica group
	// group(b) = {(b%Shards + k) % Shards : k < R} — and every routed
	// update for b is published to every live group member, so followers
	// replay the identical per-source stream the primary does.
	Replicas int
	// DeadMask is the liveness bit-set (bit i = shard i presumed dead),
	// versioned by Epoch. Ownership chains through it: a dead base
	// owner's blocks are served by the first live member of each block's
	// replica group. The uint64 width caps replicated plans at 64 shards —
	// ample for the process-per-shard topology and the cheapest
	// value-semantics representation (plans stay copyable immutable
	// values).
	DeadMask uint64
}

// NewShardPlan derives the partition geometry for a vertex space of
// numVertices split shards ways.
func NewShardPlan(numVertices, shards int) ShardPlan {
	if shards < 1 {
		shards = 1
	}
	rangeSize := (numVertices + shards - 1) / shards
	if rangeSize == 0 {
		rangeSize = 1
	}
	return ShardPlan{Shards: shards, RangeSize: rangeSize}
}

// PlanFromHello is the plan a shard node serves a session under: the
// geometry and replication factor the coordinator's Hello carries, every
// shard live at epoch 0. A daemon that joins after liveness flips learns
// them from the PlanState that heads its ingest stream.
func PlanFromHello(h fabric.Hello) ShardPlan {
	return ShardPlan{Shards: h.Shards, RangeSize: h.RangeSize, Replicas: h.Replicas}
}

// Owner returns the shard owning vertex v. It is defined for every
// possible vertex ID, including IDs beyond the space the plan was derived
// from (see the type comment), under any dead-mask: with replication, a
// dead base owner's block chains to the first live member of its replica
// group, and a fully-dead group falls back to the base owner (the caller
// is about to fail anyway; totality is preserved).
func (p ShardPlan) Owner(v graph.VertexID) int {
	return p.BlockOwner(uint64(v) / uint64(p.RangeSize))
}

// dead reports whether shard s is masked dead.
func (p ShardPlan) dead(s int) bool {
	return s < 64 && p.DeadMask&(1<<uint(s)) != 0
}

// Alive reports whether shard s is currently considered live.
func (p ShardPlan) Alive(s int) bool { return !p.dead(s) }

// InGroup reports whether shard s is in block b's replica group — the
// Replicas consecutive shards starting at the block's base owner. With
// no replication the group is just the base owner. The group is fixed by
// the block-cyclic base; the dead-mask only decides which member serves.
func (p ShardPlan) InGroup(b uint64, s int) bool {
	r := p.Replicas
	if r < 1 {
		r = 1
	}
	base := int(b % uint64(p.Shards))
	return (s-base+p.Shards)%p.Shards < r
}

// GroupMembers returns block b's replica group in priority order (base
// owner first). The slice is freshly allocated.
func (p ShardPlan) GroupMembers(b uint64) []int {
	r := p.Replicas
	if r < 1 {
		r = 1
	}
	if r > p.Shards {
		r = p.Shards
	}
	base := int(b % uint64(p.Shards))
	g := make([]int, r)
	for k := range g {
		g[k] = (base + k) % p.Shards
	}
	return g
}

// WithDown returns a new plan with shard s marked dead at the given
// epoch. Ownership of s's base blocks chains to their next live replica
// the instant the plan is installed, and flip back with WithUp once s
// has been re-primed: the mask records "temporarily elsewhere" without
// touching the block-cyclic base.
func (p ShardPlan) WithDown(s int, epoch uint64) (ShardPlan, error) {
	if s < 0 || s >= p.Shards || s >= 64 {
		return p, fmt.Errorf("walk: dead-mask shard %d out of range for %d shards", s, p.Shards)
	}
	if epoch <= p.Epoch {
		return p, fmt.Errorf("walk: dead-mask epoch %d not beyond current %d", epoch, p.Epoch)
	}
	next := p
	next.Epoch = epoch
	next.DeadMask |= 1 << uint(s)
	return next, nil
}

// WithUp returns a new plan with shard s marked live again at the given
// epoch — the failback flip after a rejoined shard's replica blocks have
// been re-primed.
func (p ShardPlan) WithUp(s int, epoch uint64) (ShardPlan, error) {
	if s < 0 || s >= p.Shards || s >= 64 {
		return p, fmt.Errorf("walk: dead-mask shard %d out of range for %d shards", s, p.Shards)
	}
	if epoch <= p.Epoch {
		return p, fmt.Errorf("walk: dead-mask epoch %d not beyond current %d", epoch, p.Epoch)
	}
	next := p
	next.Epoch = epoch
	next.DeadMask &^= 1 << uint(s)
	return next, nil
}

// BlockOf returns the ownership-block index of vertex v.
func (p ShardPlan) BlockOf(v graph.VertexID) uint64 {
	return uint64(v) / uint64(p.RangeSize)
}

// BlockRange returns the vertex-ID range [lo, hi) block b covers. The
// bounds are uint64 on purpose: the top block of the uint32 ID space has
// hi = 2³², which a graph.VertexID cannot represent — truncating it
// would make the topmost vertices (IDs near 2³²−1) unreachable by
// replica priming.
func (p ShardPlan) BlockRange(b uint64) (lo, hi uint64) {
	lo = b * uint64(p.RangeSize)
	return lo, lo + uint64(p.RangeSize)
}

// BlockOwner returns the shard owning block b under the current
// dead-mask (the block-index form of Owner).
func (p ShardPlan) BlockOwner(b uint64) int {
	base := int(b % uint64(p.Shards))
	if p.DeadMask == 0 || !p.dead(base) {
		return base
	}
	r := p.Replicas
	if r < 1 {
		r = 1
	}
	for k := 1; k < r; k++ {
		if s := (base + k) % p.Shards; !p.dead(s) {
			return s
		}
	}
	return base
}

// BootstrapShards cuts the per-shard engine set of a sharded live service
// from src: shard i's sampler is src.CopyRows over exactly the vertices
// whose block's replica group holds i (just the owner without
// replication; followers start from the primary's records), and wrap
// makes each copy a live engine (that is where concurrency choices live).
// The copies run one goroutine per shard; wrap is called on the caller's
// goroutine in shard order. src must not be mutated during the call.
func BootstrapShards(src *core.Sampler, plan ShardPlan, wrap func(*core.Sampler) LiveEngine) []LiveEngine {
	samplers := make([]*core.Sampler, plan.Shards)
	var wg sync.WaitGroup
	for i := range samplers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samplers[i] = src.CopyRows(func(v graph.VertexID) bool { return plan.InGroup(plan.BlockOf(v), i) })
		}()
	}
	wg.Wait()
	engines := make([]LiveEngine, plan.Shards)
	for i, s := range samplers {
		engines[i] = wrap(s)
	}
	return engines
}

// visitCounter is a growable atomic visit tally. Fixed-size visit slices
// belong to the same frozen-size family of bugs as the old frozen
// ownership: a live engine can grow the vertex space mid-walk, and the
// next step may land on a vertex past the slice's end. In-range bumps
// share the read lock and stay one atomic add; an out-of-range bump
// upgrades to the write lock and grows the tally first.
type visitCounter struct {
	mu     sync.RWMutex
	counts []int64
}

func newVisitCounter(n int) *visitCounter {
	return &visitCounter{counts: make([]int64, n)}
}

func (c *visitCounter) bump(v graph.VertexID) {
	c.mu.RLock()
	if int(v) < len(c.counts) {
		atomic.AddInt64(&c.counts[v], 1)
		c.mu.RUnlock()
		return
	}
	c.mu.RUnlock()
	c.mu.Lock()
	for int(v) >= len(c.counts) {
		grown := len(c.counts) * 2
		if grown <= int(v) {
			grown = int(v) + 1
		}
		c.counts = append(c.counts, make([]int64, grown-len(c.counts))...)
	}
	c.counts[v]++
	c.mu.Unlock()
}

// snapshot returns the tally; the counter must no longer be bumped.
func (c *visitCounter) snapshot() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// TransferStats reports the communication volume of a sharded run.
type TransferStats struct {
	// Transfers counts walker hand-offs between shards. A walk's final
	// hop never causes one, even when it crossed a boundary: a finished
	// walker retires where it is.
	Transfers int64
	// Local counts steps sampled by the shard owning the walker's vertex.
	Local int64
	// Remote counts steps at non-owned vertices served from a cached
	// hub view — hops that would have been hand-offs without the
	// fabric-side cache. Every step is one or the other: Steps = Local +
	// Remote.
	Remote int64
}
