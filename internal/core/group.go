package core

import (
	"fmt"

	"github.com/bingo-rw/bingo/internal/bitutil"
	"github.com/bingo-rw/bingo/internal/ihash"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// group is one radix group of one vertex: the set of neighbor indices whose
// bias has digit value v at digit position j, where the flattened group id
// is gid = j·(B-1) + (v-1) for radix base B = 2^b. Every member contributes
// the identical sub-bias v·B^j, so intra-group sampling is uniform
// (Equation 6) and the group's total weight is count·v·B^j (Equation 4).
//
// The representation varies by kind (paper §5.1):
//
//	dense:   count only; sampling rejects over the raw neighbor list
//	one:     the single member inline
//	sparse:  member list + compact hash inverted index (member → pos)
//	regular: member list + full inverted index (neighbor idx → pos)
//
// Everything Sample reads (gid, kind, count, one, the list header) is
// inline; the inverted indices only updates read sit behind ix, so the
// dense and one-element groups that dominate real graphs cost the 48-byte
// header and nothing else.
type group struct {
	gid   int16
	kind  GroupKind
	count int32
	one   int32       // KindOne member
	list  []int32     // KindSparse / KindRegular members
	ix    *groupIndex // KindSparse / KindRegular; nil otherwise
}

// groupIndex is a group's update-only inverted index: the full d-sized
// array of a regular group, or the hash of a sparse one.
type groupIndex struct {
	inv  []int32   // KindRegular: inv[neighborIdx] = pos, -1 otherwise
	sinv ihash.Map // KindSparse: member → pos
}

// decodeGID splits a flattened group id into digit position and value.
func decodeGID(gid int16, radixBits int) (j int, v uint64) {
	perPos := int16(1)<<uint(radixBits) - 1
	return int(gid / perPos), uint64(gid%perPos) + 1
}

// gidOf returns the flattened group id for digit position j with value v.
func gidOf(j int, v uint64, radixBits int) int16 {
	perPos := int16(1)<<uint(radixBits) - 1
	return int16(j)*perPos + int16(v) - 1
}

// weight returns the group's total sub-bias mass, count·v·2^(b·j), exactly
// representable in float64 for all biases below 2^53.
func (g *group) weight(radixBits int) float64 {
	j, v := decodeGID(g.gid, radixBits)
	return float64(g.count) * float64(v) * pow2(radixBits*j)
}

func pow2(e int) float64 {
	if e < 63 {
		return float64(uint64(1) << uint(e))
	}
	f := 1.0
	for ; e >= 62; e -= 62 {
		f *= float64(uint64(1) << 62)
	}
	return f * float64(uint64(1)<<uint(e))
}

// memberOf reports whether a bias participates in this group.
func (g *group) memberOf(bias uint64, radixBits int) bool {
	j, v := decodeGID(g.gid, radixBits)
	return bitutil.Digit(bias, j, radixBits) == v
}

// add inserts member idx. The caller must have converted the group to a
// representation that accepts another member (KindOne can hold at most one).
func (g *group) add(idx int32) {
	switch g.kind {
	case KindEmpty:
		g.kind = KindOne
		g.one = idx
	case KindDense:
		// count-only
	case KindOne:
		panic("core: add to full one-element group without conversion")
	case KindSparse:
		g.ix.sinv.Add(uint32(idx), g.count)
		g.list = append(g.list, idx)
	case KindRegular:
		g.ix.inv[idx] = g.count
		g.list = append(g.list, idx)
	}
	g.count++
}

// remove deletes member idx via delete-and-swap (paper §4.2 step iii).
func (g *group) remove(idx int32) {
	switch g.kind {
	case KindDense:
		// count-only
	case KindOne:
		if g.one != idx {
			panic(fmt.Sprintf("core: one-element group %d holds %d, removing %d", g.gid, g.one, idx))
		}
		g.kind = KindEmpty
	case KindSparse:
		sinv := &g.ix.sinv
		pos := sinv.FindAny(uint32(idx))
		if pos < 0 {
			panic(fmt.Sprintf("core: member %d missing from sparse group %d", idx, g.gid))
		}
		last := g.count - 1
		tail := g.list[last]
		if pos != last {
			g.list[pos] = tail
			sinv.Replace(uint32(tail), last, pos)
		}
		sinv.Remove(uint32(idx), pos)
		g.list = g.list[:last]
	case KindRegular:
		inv := g.ix.inv
		pos := inv[idx]
		if pos < 0 {
			panic(fmt.Sprintf("core: member %d missing from regular group %d", idx, g.gid))
		}
		last := g.count - 1
		tail := g.list[last]
		if pos != last {
			g.list[pos] = tail
			inv[tail] = pos
		}
		inv[idx] = -1
		g.list = g.list[:last]
	default:
		panic("core: remove from empty group")
	}
	g.count--
	if g.count == 0 && g.kind != KindEmpty {
		g.releaseStorage()
		g.kind = KindEmpty
	}
}

// rename re-points member old to new after an adjacency swap-delete moved
// the neighbor from slot old to slot new. Membership and position are
// unchanged; only the identity is rewritten.
func (g *group) rename(old, new int32) {
	switch g.kind {
	case KindDense:
		// identity-free
	case KindOne:
		if g.one != old {
			panic(fmt.Sprintf("core: rename %d→%d but one-element group holds %d", old, new, g.one))
		}
		g.one = new
	case KindSparse:
		sinv := &g.ix.sinv
		pos := sinv.FindAny(uint32(old))
		if pos < 0 {
			panic(fmt.Sprintf("core: rename of non-member %d in sparse group %d", old, g.gid))
		}
		g.list[pos] = new
		sinv.Remove(uint32(old), pos)
		sinv.Add(uint32(new), pos)
	case KindRegular:
		inv := g.ix.inv
		pos := inv[old]
		if pos < 0 {
			panic(fmt.Sprintf("core: rename of non-member %d in regular group %d", old, g.gid))
		}
		g.list[pos] = new
		inv[new] = pos
		inv[old] = -1
	default:
		panic("core: rename in empty group")
	}
}

// sample draws a member uniformly (Equation 6). Dense groups reject over
// the raw bias column; the acceptance rate is count/d, which the adaptive
// thresholds keep above α%·hysteresis (paper: "the rejection ratio is below
// (1-α%) = 60%").
func (g *group) sample(r *xrand.RNG, biasRow []uint64, radixBits int) int32 {
	switch g.kind {
	case KindOne:
		return g.one
	case KindSparse, KindRegular:
		return g.list[r.Intn(int(g.count))]
	case KindDense:
		j, v := decodeGID(g.gid, radixBits)
		d := len(biasRow)
		for {
			i := r.Intn(d)
			if bitutil.Digit(biasRow[i], j, radixBits) == v {
				return int32(i)
			}
		}
	default:
		panic("core: sample from empty group")
	}
}

// members appends the group's member set to dst. Dense groups are
// enumerated by scanning the bias column.
func (g *group) members(dst []int32, biasRow []uint64, radixBits int) []int32 {
	switch g.kind {
	case KindEmpty:
	case KindOne:
		dst = append(dst, g.one)
	case KindSparse, KindRegular:
		dst = append(dst, g.list...)
	case KindDense:
		j, v := decodeGID(g.gid, radixBits)
		for i, b := range biasRow {
			if bitutil.Digit(b, j, radixBits) == v {
				dst = append(dst, int32(i))
			}
		}
	}
	return dst
}

// releaseStorage drops representation-specific storage, keeping count.
func (g *group) releaseStorage() {
	g.list = nil
	g.ix = nil
	g.one = -1
}

// initIndex allocates the empty inverted index the group's kind needs: a
// d-sized all-absent array for regular groups, an empty hash for sparse
// ones.
func (g *group) initIndex(d int) {
	switch g.kind {
	case KindSparse:
		g.ix = &groupIndex{}
	case KindRegular:
		inv := make([]int32, d)
		for i := range inv {
			inv[i] = -1
		}
		g.ix = &groupIndex{inv: inv}
	}
}

// convertTo rebuilds the group in the target representation. d is the
// current vertex degree (regular inverted indices are d-sized); biasRow is
// needed to enumerate members when converting out of dense. scratch is
// reusable member storage owned by the caller.
func (g *group) convertTo(target GroupKind, d int, biasRow []uint64, radixBits int, scratch []int32) []int32 {
	if target == g.kind {
		return scratch
	}
	scratch = g.members(scratch[:0], biasRow, radixBits)
	if int32(len(scratch)) != g.count {
		panic(fmt.Sprintf("core: group %d count %d but %d members", g.gid, g.count, len(scratch)))
	}
	g.releaseStorage()
	g.kind = target
	g.initIndex(d)
	switch target {
	case KindEmpty:
		if g.count != 0 {
			panic("core: converting populated group to empty")
		}
	case KindDense:
		// count-only
	case KindOne:
		if g.count != 1 {
			panic(fmt.Sprintf("core: converting %d-member group to one-element", g.count))
		}
		g.one = scratch[0]
	case KindSparse:
		g.list = append(g.list, scratch...)
		for pos, idx := range g.list {
			g.ix.sinv.Add(uint32(idx), int32(pos))
		}
	case KindRegular:
		g.list = append(g.list, scratch...)
		for pos, idx := range g.list {
			g.ix.inv[idx] = int32(pos)
		}
	}
	return scratch
}

// growInv extends a regular group's inverted index to degree d (new slots
// are non-members). Insertion calls this for every regular group before
// appending the new neighbor index.
func (g *group) growInv(d int) {
	if g.kind != KindRegular {
		return
	}
	for len(g.ix.inv) < d {
		g.ix.inv = append(g.ix.inv, -1)
	}
}

// shrinkInv truncates a regular group's inverted index after the adjacency
// row shrank to degree d. All dropped slots must already be non-members.
func (g *group) shrinkInv(d int) {
	if g.kind != KindRegular || len(g.ix.inv) <= d {
		return
	}
	g.ix.inv = g.ix.inv[:d]
}

// listBytes and indexBytes split the bytes this group holds outside its
// header: the member list, and the inverted index with its own header.
func (g *group) listBytes() int64 { return int64(cap(g.list)) * 4 }

func (g *group) indexBytes() int64 {
	if g.ix == nil {
		return 0
	}
	return groupIndexSize + int64(cap(g.ix.inv))*4 + g.ix.sinv.Footprint()
}
