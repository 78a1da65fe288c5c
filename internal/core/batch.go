package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-rw/bingo/internal/bitutil"
	"github.com/bingo-rw/bingo/internal/graph"
)

// BatchResult reports the outcome of ApplyBatch.
type BatchResult struct {
	// Inserted and Deleted count applied events.
	Inserted, Deleted int
	// NotFound counts deletions whose edge was not live (they are
	// skipped, mirroring the tolerant semantics of the evaluated
	// systems).
	NotFound int
}

// ApplyBatch ingests a batch of updates using the paper's §5.2 workflow:
// requests are reordered by source vertex (the CPU-side step of Figure
// 10(a)); vertices are processed in parallel by a worker pool (the GPU
// kernel's vertex-per-object parallelism); per vertex the order is
// insert → delete → rebuild, with deletions compacted by the 2-phase
// parallel delete-and-swap and group-type conversions deferred to the
// rebuild step. The inter-group alias table of each touched vertex is
// rebuilt exactly once.
//
// The input slice is reordered in place by an O(n) stable radix sort on
// the source (stable per source, preserving the paper's timestamp
// semantics). Zero-bias insertions fail validation before any mutation.
func (s *Sampler) ApplyBatch(ups []graph.Update) (BatchResult, error) {
	var res BatchResult
	if len(ups) == 0 {
		return res, nil
	}
	// Validate before mutating anything.
	maxV, err := s.ValidateUpdates(ups)
	if err != nil {
		return res, err
	}
	s.ensureVertex(maxV)
	return s.ApplyPerSource(ups, s.cfg.Workers, nil, s.ApplyVertexUpdates), nil
}

// applyChunk is how many consecutive per-source runs a batch worker claims
// from the shared cursor at a time: enough that one atomic add is
// amortised over ~100 µs of vertex work, few enough that the workers'
// last chunks finish close together. With RunGroups it also caps the runs
// applied inside one Enter/Exit bracket.
const applyChunk = 64

// RunGroups partitions ApplyPerSource's per-source runs into groups that
// must not be applied by two workers at once, and brackets the
// application (internal/concurrent: a lock stripe and its write lock).
type RunGroups interface {
	// Groups is the group count; GroupOf maps a source into [0, Groups()).
	Groups() int
	GroupOf(u graph.VertexID) int
	// Enter and Exit bracket each piece of at most applyChunk
	// consecutive runs of group g; a worker enters one group at a time.
	Enter(g int)
	Exit(g int)
}

// ApplyPerSource is the batched workflow's orchestration, shared with
// external coordinators (internal/concurrent): sort ups by source in
// place (graph.SortUpdatesBySrc, O(n) and stable), partition them into
// per-source runs, and apply the runs on up to workers goroutines, the
// caller's included. Workers claim units of work through one atomic
// cursor: applyChunk runs at a time, or, when groups is non-nil, one
// whole group at a time. Grouped runs are ordered group-major by a stable
// counting pass (ascending source within a group), so two workers never
// share a group, and each group is applied in pieces of at most
// applyChunk runs, each inside one groups.Enter/Exit bracket. A batch of
// at most one chunk runs on the caller's goroutine alone. apply is called
// exactly once per source, with that source's updates in their submission
// order, and receives a per-worker Scratch whose conversion stats are
// flushed once per worker. The updates must already have passed
// ValidateUpdates and the vertex space must cover every referenced ID.
func (s *Sampler) ApplyPerSource(ups []graph.Update, workers int, groups RunGroups, apply func(u graph.VertexID, ops []graph.Update, sc *Scratch) BatchResult) BatchResult {
	var res BatchResult
	if len(ups) == 0 {
		return res
	}
	var t0 time.Time
	if s.cfg.Instrument {
		t0 = time.Now()
	}
	graph.SortUpdatesBySrc(ups)

	// Partition into per-vertex runs, then into the cursor's units.
	var runs []srcRun
	lo := 0
	for i := 1; i <= len(ups); i++ {
		if i == len(ups) || ups[i].Src != ups[lo].Src {
			runs = append(runs, srcRun{lo, i})
			lo = i
		}
	}
	var units []int // unit c is runs[units[c]:units[c+1]]
	if groups == nil {
		for lo := 0; lo < len(runs); lo += applyChunk {
			units = append(units, lo)
		}
		units = append(units, len(runs))
	} else {
		runs, units = groupMajor(ups, runs, groups)
	}
	if s.cfg.Instrument {
		s.reorderNs.Add(time.Since(t0).Nanoseconds())
	}

	var mu sync.Mutex
	chunks := (len(runs) + applyChunk - 1) / applyChunk
	parallelClaim(min(workers, chunks), len(units)-1, func(claim func() (int, bool)) {
		var local BatchResult
		sc := NewScratch()
		for c, ok := claim(); ok; c, ok = claim() {
			for lo, hi := units[c], units[c+1]; lo < hi; lo += applyChunk {
				piece := runs[lo:min(lo+applyChunk, hi)]
				g := 0
				if groups != nil {
					g = groups.GroupOf(ups[piece[0].lo].Src)
					groups.Enter(g)
				}
				for _, rn := range piece {
					local.add(apply(ups[rn.lo].Src, ups[rn.lo:rn.hi], sc))
				}
				if groups != nil {
					groups.Exit(g)
				}
			}
		}
		s.FlushScratch(sc)
		mu.Lock()
		res.add(local)
		mu.Unlock()
	})
	return res
}

// parallelClaim runs worker on up to workers goroutines, the caller's
// included, and returns when all of them have. The workers share one
// atomic cursor over the units [0, units): claim returns the next
// unclaimed unit, so units are handed out in ascending order, each
// exactly once, and false once none is left. Per-worker state lives in
// worker's frame.
func parallelClaim(workers, units int, worker func(claim func() (int, bool))) {
	var next atomic.Int64
	claim := func() (int, bool) {
		c := int(next.Add(1) - 1)
		return c, c < units
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, units); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(claim)
		}()
	}
	worker(claim)
	wg.Wait()
}

// srcRun is one source's updates, ups[lo:hi].
type srcRun struct{ lo, hi int }

// groupMajor reorders runs (ascending by source) group-major by a stable
// counting pass and returns them with the unit bounds of the non-empty
// groups.
func groupMajor(ups []graph.Update, runs []srcRun, groups RunGroups) ([]srcRun, []int) {
	count := make([]int, groups.Groups()+1)
	for _, rn := range runs {
		count[groups.GroupOf(ups[rn.lo].Src)+1]++
	}
	units := []int{0}
	for g := 1; g < len(count); g++ {
		if count[g] > 0 {
			units = append(units, count[g-1]+count[g])
		}
		count[g] += count[g-1]
	}
	out := make([]srcRun, len(runs))
	for _, rn := range runs {
		g := groups.GroupOf(ups[rn.lo].Src)
		out[count[g]] = rn
		count[g]++
	}
	return out, units
}

func (r *BatchResult) add(o BatchResult) {
	r.Inserted += o.Inserted
	r.Deleted += o.Deleted
	r.NotFound += o.NotFound
}

// batchScratch is per-worker reusable state: the staging maps of the
// batched workflow plus the conversion counters. Reuse keeps the per-vertex
// cost allocation-free, which matters because most vertices receive a
// single update per batch.
type batchScratch struct {
	cc      convCounters
	deltas  map[int16]int32
	claimed map[int32]bool
	victims map[int32]bool
	slots   []int32
	ins     []insRec
	surv    []int32
	holes   []int32
	bulk    *bulkBuild // bulkInsert's; nil until a worker first needs it
}

type insRec struct {
	dst  graph.VertexID
	bias uint64
	rem  float32
}

func newBatchScratch() *batchScratch {
	return &batchScratch{
		deltas:  make(map[int16]int32),
		claimed: make(map[int32]bool),
		victims: make(map[int32]bool),
	}
}

// applyVertexBatch processes one vertex's events: insert → delete →
// rebuild (paper Figure 10(a) steps (i)-(iii)), or, when they are all
// inserts into an empty record, one bulk build.
func (s *Sampler) applyVertexBatch(u graph.VertexID, ops []graph.Update, sc *batchScratch) BatchResult {
	var t0 time.Time
	if s.cfg.Instrument {
		t0 = time.Now()
	}
	s.vx[u].dirty = true

	// Fast path: a single event needs no staging at all — the common
	// case when a batch spreads across many vertices. The streaming
	// mutators already maintain conversions and index sizes, so only the
	// inter-group alias rebuild remains.
	if len(ops) == 1 {
		res := s.applySingleOp(u, &ops[0], &sc.cc)
		if s.cfg.Instrument {
			mid := time.Now()
			s.insDelNs.Add(mid.Sub(t0).Nanoseconds())
			t0 = mid
		}
		s.rebuildInter(u)
		if s.cfg.Instrument {
			s.rebuildNs.Add(time.Since(t0).Nanoseconds())
		}
		return res
	}

	if s.emptyRecord(u) && allInserts(ops) {
		return s.bulkInsert(u, ops, sc, t0)
	}
	return s.applyIncremental(u, ops, sc, t0)
}

// applyIncremental is the general per-vertex workflow: stage the
// insertions against the existing record, then the deletions, then one
// rebuild. t0 is the phase timer's start.
func (s *Sampler) applyIncremental(u graph.VertexID, ops []graph.Update, sc *batchScratch, t0 time.Time) BatchResult {
	var res BatchResult
	cc := &sc.cc
	vx := &s.vx[u]
	b := s.cfg.RadixBits

	// ---- Step (i): insertions -------------------------------------------
	ins := sc.ins[:0]
	nDel := 0
	for i := range ops {
		switch ops[i].Op {
		case graph.OpInsert:
			var ib uint64
			var rem float32
			if s.cfg.FloatBias {
				ib, rem = splitFloatBias(float64(ops[i].Bias)+ops[i].FBias, s.cfg.Lambda)
			} else {
				ib = ops[i].Bias
			}
			ins = append(ins, insRec{ops[i].Dst, ib, rem})
		case graph.OpDelete:
			nDel++
		}
	}
	sc.ins = ins
	oldD := s.adjs.Degree(u)
	dAfterIns := oldD + len(ins)

	if len(ins) > 0 {
		// Pre-classify touched groups against their post-insertion
		// cardinality (the paper's batched one-element-group rule:
		// "derive whether this group evolves into a sparse/regular/dense
		// group based on all the insertions").
		clear(sc.deltas)
		for _, rec := range ins {
			n := bitutil.NumDigits(rec.bias, b)
			for j := 0; j < n; j++ {
				if v := bitutil.Digit(rec.bias, j, b); v != 0 {
					sc.deltas[gidOf(j, v, b)]++
				}
			}
		}
		biasRow := s.adjs.BiasRow(u)
		for gid, delta := range sc.deltas {
			g := vx.ensureGroup(gid)
			cc.touch(g.kind)
			working := KindRegular
			if s.cfg.Adaptive {
				working = classify(g.count+delta, dAfterIns, s.cfg.AlphaPct, s.cfg.BetaPct)
			}
			if working == KindOne && g.kind == KindEmpty {
				continue // first add turns empty into one-element
			}
			if g.kind == KindEmpty && g.count == 0 {
				// Fresh group: adopt the working representation
				// directly (no members to carry over).
				g.kind = working
				g.initIndex(dAfterIns)
				continue
			}
			s.convert(g, working, dAfterIns, biasRow, cc)
		}
		// All regular inverted indices must address the grown row.
		for i := range vx.groups {
			vx.groups[i].growInv(dAfterIns)
		}
		if s.cfg.FloatBias {
			vx.decimal().growInv(dAfterIns)
		}
		s.adjs.Grow(u, len(ins))
		for _, rec := range ins {
			idx := s.adjs.Append(u, rec.dst, rec.bias, rec.rem)
			n := bitutil.NumDigits(rec.bias, b)
			for j := 0; j < n; j++ {
				v := bitutil.Digit(rec.bias, j, b)
				if v == 0 {
					continue
				}
				i, ok := vx.findGroup(gidOf(j, v, b))
				if !ok {
					panic("core: batch insert group vanished")
				}
				vx.groups[i].add(idx)
			}
			if s.cfg.FloatBias {
				vx.dec.add(idx, rec.rem)
			}
			res.Inserted++
		}
	}

	// ---- Step (ii): deletions (2-phase parallel delete-and-swap) --------
	if nDel > 0 {
		clear(sc.claimed)
		slots := sc.slots[:0]
		for i := range ops {
			if ops[i].Op != graph.OpDelete {
				continue
			}
			slot := s.resolveDelete(u, ops[i].Dst, oldD, sc.claimed)
			if slot < 0 {
				res.NotFound++
				continue
			}
			sc.claimed[slot] = true
			slots = append(slots, slot)
			res.Deleted++
		}
		sc.slots = slots
		if len(slots) > 0 {
			s.twoPhaseDelete(u, slots, sc)
		}
	}

	// ---- Step (iii): rebuild --------------------------------------------
	if s.cfg.Instrument {
		mid := time.Now()
		s.insDelNs.Add(mid.Sub(t0).Nanoseconds())
		t0 = mid
	}
	s.rebuildVertex(u, cc)
	if s.cfg.Instrument {
		s.rebuildNs.Add(time.Since(t0).Nanoseconds())
	}
	return res
}

// emptyRecord reports whether u holds nothing a batch would have to
// carry over: no edges, no groups, and no members in its decimal group.
func (s *Sampler) emptyRecord(u graph.VertexID) bool {
	vx := &s.vx[u]
	return s.adjs.Degree(u) == 0 && len(vx.groups) == 0 && (vx.dec == nil || vx.dec.count() == 0)
}

func allInserts(ops []graph.Update) bool {
	for i := range ops {
		if ops[i].Op != graph.OpInsert {
			return false
		}
	}
	return true
}

// bulkInsert applies a batch of inserts to a vertex whose record is empty
// the way NewFromCSR builds one: the row is filled in one step and the
// record is built in one pass that classifies each group once, by its
// final count (the batched rule of §5.2 applied to the whole row). Its
// record equals the one the incremental insert → rebuild path builds —
// same group kinds, member order and alias buckets, so the same draws —
// at no larger footprint, and it counts the same Table 4 touches: one
// visit to each group while it was still empty, and no conversion.
func (s *Sampler) bulkInsert(u graph.VertexID, ops []graph.Update, sc *batchScratch, t0 time.Time) BatchResult {
	d := len(ops)
	dst := make([]uint32, d)
	bias := make([]uint64, d)
	var rem []float32
	if s.cfg.FloatBias {
		rem = make([]float32, d)
	}
	for i := range ops {
		dst[i] = ops[i].Dst
		if s.cfg.FloatBias {
			bias[i], rem[i] = splitFloatBias(float64(ops[i].Bias)+ops[i].FBias, s.cfg.Lambda)
		} else {
			bias[i] = ops[i].Bias
		}
	}
	s.adjs.SetRow(u, dst, bias, rem)
	// Drop the emptied record's leftovers: the decimal group's drifted sum
	// and whatever storage its last deletions left behind.
	s.vx[u] = vertex{dirty: true}
	if s.cfg.Instrument {
		mid := time.Now()
		s.insDelNs.Add(mid.Sub(t0).Nanoseconds())
		t0 = mid
	}
	if sc.bulk == nil || len(sc.bulk.slot) < gidSpace(s.cfg.RadixBits) {
		sc.bulk = newBulkBuild(s.cfg.RadixBits)
	}
	s.bulkBuildVertex(u, sc.bulk)
	sc.cc.touches[KindEmpty] += int64(len(s.vx[u].groups))
	if s.cfg.Instrument {
		s.rebuildNs.Add(time.Since(t0).Nanoseconds())
	}
	return BatchResult{Inserted: d}
}

// applySingleOp applies one event through the streaming machinery (minus
// the alias rebuild, which the caller's rebuild step performs).
func (s *Sampler) applySingleOp(u graph.VertexID, op *graph.Update, cc *convCounters) BatchResult {
	var res BatchResult
	switch op.Op {
	case graph.OpInsert:
		var ib uint64
		var rem float32
		if s.cfg.FloatBias {
			ib, rem = splitFloatBias(float64(op.Bias)+op.FBias, s.cfg.Lambda)
		} else {
			ib = op.Bias
		}
		s.insertEdge(u, op.Dst, ib, rem, cc)
		res.Inserted = 1
	case graph.OpDelete:
		idx := s.adjs.Find(u, op.Dst)
		if idx < 0 {
			res.NotFound = 1
			return res
		}
		s.deleteEdge(u, idx, cc)
		res.Deleted = 1
	}
	return res
}

// resolveDelete finds an unclaimed live slot for deleting edge u→dst. To
// honor the paper's "delete the earlier version first" timestamp rule for
// duplicated edges, pre-batch slots (index < oldD) are preferred over
// slots appended by this batch, and lower slots are preferred within each
// class. The fast path (no duplicates, nothing claimed) is a single hash
// probe.
func (s *Sampler) resolveDelete(u, dst graph.VertexID, oldD int, claimed map[int32]bool) int32 {
	slot := s.adjs.Find(u, dst)
	if slot < 0 {
		return -1
	}
	if !claimed[slot] && int(slot) < oldD {
		return slot
	}
	// Slow path: scan the row for the best candidate.
	row := s.adjs.DstRow(u)
	best := int32(-1)
	bestPre := false
	for i, d := range row {
		if d != dst || claimed[int32(i)] {
			continue
		}
		pre := i < oldD
		if best < 0 || (pre && !bestPre) {
			best = int32(i)
			bestPre = pre
			if pre {
				break // lowest pre-batch slot wins
			}
		}
	}
	return best
}

// twoPhaseDelete removes the given adjacency slots using the paper's
// 2-phase parallel delete-and-swap (Figure 10(b)). Let n be the degree and
// N the number of deletions. Phase 1 condemns the victims residing in the
// tail window [n-N, n) — they will be truncated, so no data movement is
// needed (γ of them). Phase 2 moves the window's N-γ guaranteed survivors
// into the N-γ front holes. Group memberships of all victims are removed
// first; moved survivors' group entries are renamed to their new slots.
func (s *Sampler) twoPhaseDelete(u graph.VertexID, slots []int32, sc *batchScratch) {
	cc := &sc.cc
	vx := &s.vx[u]
	b := s.cfg.RadixBits
	n := s.adjs.Degree(u)
	N := len(slots)
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })

	// Remove victims' group memberships and lookup entries while every
	// slot is still addressable.
	for _, slot := range slots {
		bias := s.adjs.Bias(u, slot)
		nd := bitutil.NumDigits(bias, b)
		for j := 0; j < nd; j++ {
			v := bitutil.Digit(bias, j, b)
			if v == 0 {
				continue
			}
			i, ok := vx.findGroup(gidOf(j, v, b))
			if !ok {
				panic("core: batch delete: missing group")
			}
			cc.touch(vx.groups[i].kind)
			vx.groups[i].remove(slot)
		}
		if s.cfg.FloatBias {
			vx.dec.remove(slot, s.adjs.Rem(u, slot))
		}
		s.adjs.Unindex(u, slot)
	}

	// Phase 1: victims inside the tail window need no movement. Identify
	// the window's survivors (ascending) and the front holes (ascending).
	windowStart := int32(n - N)
	clear(sc.victims)
	for _, slot := range slots {
		sc.victims[slot] = true
	}
	survivors, holes := sc.surv[:0], sc.holes[:0]
	for i := windowStart; i < int32(n); i++ {
		if !sc.victims[i] {
			survivors = append(survivors, i)
		}
	}
	for _, slot := range slots {
		if slot < windowStart {
			holes = append(holes, slot)
		}
	}
	sc.surv, sc.holes = survivors, holes
	if len(survivors) != len(holes) {
		panic(fmt.Sprintf("core: two-phase invariant broken: %d survivors, %d holes", len(survivors), len(holes)))
	}

	// Phase 2: fill each hole with a guaranteed survivor.
	for i, hole := range holes {
		sv := survivors[i]
		s.adjs.Move(u, sv, hole)
		bias := s.adjs.Bias(u, hole)
		nd := bitutil.NumDigits(bias, b)
		for j := 0; j < nd; j++ {
			v := bitutil.Digit(bias, j, b)
			if v == 0 {
				continue
			}
			gi, ok := vx.findGroup(gidOf(j, v, b))
			if !ok {
				panic("core: batch delete: survivor group missing")
			}
			vx.groups[gi].rename(sv, hole)
		}
		if s.cfg.FloatBias {
			vx.dec.rename(sv, hole)
		}
	}
	s.adjs.Truncate(u, n-N)
}

// rebuildVertex is step (iii) of the batched workflow: reclassification of
// every group (the paper's group-type transformations, counted for Table
// 4), index shrinking, decimal-group recomputation, and a single
// inter-group alias rebuild (which drops the emptied groups).
//
// Classification uses the same hysteresis bands as the streaming path
// (wantConvert) rather than the raw Equation 9 boundary: with exact
// boundaries, a group whose ratio straddles α or β converts on every
// batch — an O(d) cost per batch per boundary group that exact-threshold
// reclassification would re-pay indefinitely. The paper's own measured
// conversion rates (< 0.47%, Table 4) imply an equally stable policy.
func (s *Sampler) rebuildVertex(u graph.VertexID, cc *convCounters) {
	vx := &s.vx[u]
	d := s.adjs.Degree(u)
	biasRow := s.adjs.BiasRow(u)
	for i := range vx.groups {
		g := &vx.groups[i]
		if g.count == 0 {
			continue
		}
		if !s.cfg.Adaptive {
			if g.kind != KindRegular {
				s.convert(g, KindRegular, d, biasRow, cc)
			} else {
				g.shrinkInv(d)
			}
			continue
		}
		if target, ok := wantConvert(g.kind, g.count, d, s.cfg.AlphaPct, s.cfg.BetaPct); ok {
			s.convert(g, target, d, biasRow, cc)
		} else {
			g.shrinkInv(d)
		}
	}
	if vx.dec != nil {
		vx.dec.shrinkInv(d)
		vx.dec.recompute(s.adjs.RemRow(u))
	}
	s.rebuildInter(u)
}
