package ihash

import (
	"testing"

	"github.com/bingo-rw/bingo/internal/xrand"
)

func TestAddFind(t *testing.T) {
	var m Map
	if m.FindAny(5) != -1 {
		t.Error("empty map found a key")
	}
	m.Add(5, 10)
	m.Add(7, 20)
	if got := m.FindAny(5); got != 10 {
		t.Errorf("FindAny(5) = %d, want 10", got)
	}
	if got := m.FindAny(7); got != 20 {
		t.Errorf("FindAny(7) = %d, want 20", got)
	}
	if m.FindAny(6) != -1 {
		t.Error("found absent key")
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestDuplicateKeys(t *testing.T) {
	var m Map
	m.Add(1, 100)
	m.Add(1, 101)
	m.Add(1, 102)
	if m.CountKey(1) != 3 {
		t.Errorf("CountKey = %d, want 3", m.CountKey(1))
	}
	if !m.Remove(1, 101) {
		t.Error("Remove of existing dup failed")
	}
	if m.CountKey(1) != 2 {
		t.Errorf("after remove CountKey = %d, want 2", m.CountKey(1))
	}
	if m.Remove(1, 101) {
		t.Error("Remove of already-removed entry succeeded")
	}
	got := m.FindAny(1)
	if got != 100 && got != 102 {
		t.Errorf("FindAny returned removed value %d", got)
	}
}

func TestRemoveMaintainsChains(t *testing.T) {
	// Insert many colliding keys, remove from the middle of the chain,
	// verify the tail remains reachable.
	var m Map
	for i := int32(0); i < 50; i++ {
		m.Add(uint32(i%5), i) // heavy duplication → long probe chains
	}
	for i := int32(0); i < 50; i += 2 {
		if !m.Remove(uint32(i%5), i) {
			t.Fatalf("failed to remove (%d,%d)", i%5, i)
		}
	}
	for i := int32(1); i < 50; i += 2 {
		found := false
		m.Range(func(k uint32, v int32) bool {
			if k == uint32(i%5) && v == i {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Errorf("entry (%d,%d) lost after unrelated removals", i%5, i)
		}
	}
}

func TestReplace(t *testing.T) {
	var m Map
	m.Add(3, 7)
	if !m.Replace(3, 7, 9) {
		t.Fatal("Replace failed")
	}
	if got := m.FindAny(3); got != 9 {
		t.Errorf("after replace FindAny = %d, want 9", got)
	}
	if m.Replace(3, 7, 11) {
		t.Error("Replace of stale value succeeded")
	}
	if m.Replace(4, 9, 11) {
		t.Error("Replace of absent key succeeded")
	}
}

func TestGrowth(t *testing.T) {
	var m Map
	const n = 10000
	for i := int32(0); i < n; i++ {
		m.Add(uint32(i), i*2)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := int32(0); i < n; i++ {
		if got := m.FindAny(uint32(i)); got != i*2 {
			t.Fatalf("FindAny(%d) = %d, want %d", i, got, i*2)
		}
	}
	if m.Cap() > 4*n {
		t.Errorf("capacity %d unreasonably large for %d entries", m.Cap(), n)
	}
}

func TestTombstoneCompaction(t *testing.T) {
	var m Map
	// Churn: add and remove repeatedly; capacity must stay bounded.
	for round := 0; round < 50; round++ {
		for i := int32(0); i < 100; i++ {
			m.Add(uint32(i), i)
		}
		for i := int32(0); i < 100; i++ {
			if !m.Remove(uint32(i), i) {
				t.Fatalf("round %d: remove %d failed", round, i)
			}
		}
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after full churn, want 0", m.Len())
	}
	if m.Cap() > 1024 {
		t.Errorf("capacity %d grew without bound under churn", m.Cap())
	}
}

func TestReset(t *testing.T) {
	var m Map
	m.Add(1, 1)
	m.Add(2, 2)
	m.Reset()
	if m.Len() != 0 || m.FindAny(1) != -1 {
		t.Error("Reset left entries behind")
	}
	m.Add(3, 3)
	if m.FindAny(3) != 3 {
		t.Error("map unusable after Reset")
	}
}

func TestFootprint(t *testing.T) {
	var m Map
	if m.Footprint() != 0 {
		t.Error("zero map has non-zero footprint")
	}
	m.Add(1, 1)
	if m.Footprint() != int64(m.Cap())*8 {
		t.Errorf("footprint %d != cap*8 = %d", m.Footprint(), m.Cap()*8)
	}
}

func TestZeroKeyAndValue(t *testing.T) {
	var m Map
	m.Add(0, 0)
	if got := m.FindAny(0); got != 0 {
		t.Errorf("FindAny(0) = %d, want 0", got)
	}
	if !m.Remove(0, 0) {
		t.Error("Remove(0,0) failed")
	}
	if m.Contains(0) {
		t.Error("Contains(0) after removal")
	}
}

// TestAgainstReferenceModel drives the map with a random op sequence and
// compares against a map[uint32]map[int32]bool reference.
func TestAgainstReferenceModel(t *testing.T) {
	r := xrand.New(99)
	var m Map
	ref := map[uint32]map[int32]bool{}
	refAdd := func(k uint32, v int32) {
		if ref[k] == nil {
			ref[k] = map[int32]bool{}
		}
		ref[k][v] = true
	}
	refDel := func(k uint32, v int32) bool {
		if ref[k] != nil && ref[k][v] {
			delete(ref[k], v)
			return true
		}
		return false
	}
	live := make([][2]int32, 0, 1024) // (key, val) pairs believed live
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) == 0 || r.Float64() < 0.55:
			k := uint32(r.Intn(64))
			v := int32(op)
			m.Add(k, v)
			refAdd(k, v)
			live = append(live, [2]int32{int32(k), v})
		default:
			i := r.Intn(len(live))
			k, v := uint32(live[i][0]), live[i][1]
			got := m.Remove(k, v)
			want := refDel(k, v)
			if got != want {
				t.Fatalf("op %d: Remove(%d,%d) = %v, ref %v", op, k, v, got, want)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%512 == 0 {
			n := 0
			for _, vs := range ref {
				n += len(vs)
			}
			if m.Len() != n {
				t.Fatalf("op %d: Len = %d, ref %d", op, m.Len(), n)
			}
			for k, vs := range ref {
				if len(vs) != m.CountKey(k) {
					t.Fatalf("op %d: CountKey(%d) = %d, ref %d", op, k, m.CountKey(k), len(vs))
				}
			}
		}
	}
}

func BenchmarkAddFindRemove(b *testing.B) {
	var m Map
	for i := 0; i < b.N; i++ {
		k := uint32(i & 0xffff)
		m.Add(k, int32(i&0x7fffffff))
		m.FindAny(k)
		m.Remove(k, int32(i&0x7fffffff))
	}
}

// TestReserve checks that a reserved map takes its n entries without
// rehashing and ends at the size incremental growth reaches.
func TestReserve(t *testing.T) {
	for _, n := range []int{1, 5, 6, 17, 100, 1000, 4096} {
		var grown, reserved Map
		reserved.Reserve(n)
		slots := reserved.Cap()
		for i := 0; i < n; i++ {
			grown.Add(uint32(i*7), int32(i))
			reserved.Add(uint32(i*7), int32(i))
		}
		if reserved.Cap() != slots {
			t.Errorf("n=%d: reserved map rehashed from %d to %d slots", n, slots, reserved.Cap())
		}
		if reserved.Cap() != grown.Cap() {
			t.Errorf("n=%d: reserved %d slots, incremental growth %d", n, reserved.Cap(), grown.Cap())
		}
		for i := 0; i < n; i++ {
			if reserved.FindAny(uint32(i*7)) != int32(i) {
				t.Fatalf("n=%d: key %d lost", n, i*7)
			}
		}
	}
}
