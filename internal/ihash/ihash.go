// Package ihash implements a compact open-addressing multimap from uint32
// keys to int32 values, specialized for the dynamic-graph engines in this
// repository.
//
// Every engine needs to answer "at which slot of vertex u's adjacency row
// does destination v live?" in O(1): Bingo's deletion path (paper §4.2)
// assumes the edge can be located in constant time, and node2vec's
// second-order rejection test needs O(1) edge-existence checks. A Go
// map[uint32][]int32 would cost ~50+ bytes per edge; this table costs 12
// bytes per slot at a bounded load factor and supports duplicate keys
// (multigraph edges), which the paper's batched-update semantics require
// ("we allow duplicated insertions of the same edge").
//
// Deletion uses tombstones so probe chains stay intact; the table rehashes
// when live+dead slots exceed the load limit, which also garbage-collects
// tombstones. All operations are amortized O(1).
package ihash

const (
	empty     int32 = -1
	tombstone int32 = -2

	minSlots = 8
	// maxLoad is the numerator of the load-factor limit (denominator 8):
	// the table grows/rehashes when (live+dead)*8 >= slots*6, i.e. 75%.
	maxLoadNum = 6
	maxLoadDen = 8
)

// Map is an open-addressing multimap from uint32 to non-negative int32.
// The zero value is an empty map ready for use.
type Map struct {
	keys []uint32
	vals []int32 // >= 0 live, empty, or tombstone
	live int
	dead int
}

// hash mixes a 32-bit key (Fibonacci hashing followed by an xorshift).
func hash(k uint32) uint32 {
	h := k * 2654435761
	h ^= h >> 16
	return h
}

// Len returns the number of live entries.
func (m *Map) Len() int { return m.live }

// Cap returns the current number of slots (0 for the zero value).
func (m *Map) Cap() int { return len(m.vals) }

// Footprint returns the memory consumed by the table in bytes.
func (m *Map) Footprint() int64 {
	return int64(len(m.keys))*4 + int64(len(m.vals))*4
}

// Clone returns a deep copy: the same slots, tombstones included, so every
// probe and every duplicate-key choice of the copy matches the original's.
func (m *Map) Clone() Map {
	c := Map{keys: make([]uint32, len(m.keys)), vals: make([]int32, len(m.vals)), live: m.live, dead: m.dead}
	copy(c.keys, m.keys)
	copy(c.vals, m.vals)
	return c
}

// Reset drops all entries but keeps the allocated slots.
func (m *Map) Reset() {
	for i := range m.vals {
		m.vals[i] = empty
	}
	m.live, m.dead = 0, 0
}

func (m *Map) grow(atLeast int) {
	want := minSlots
	for want*maxLoadNum/maxLoadDen <= atLeast {
		want <<= 1
	}
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint32, want)
	m.vals = make([]int32, want)
	for i := range m.vals {
		m.vals[i] = empty
	}
	m.live, m.dead = 0, 0
	for i, v := range oldVals {
		if v >= 0 {
			m.Add(oldKeys[i], v)
		}
	}
}

// Reserve sizes the table for n live entries, so the next Adds up to that
// count never rehash: a map filled from a known row size is built at its
// final size in one allocation.
func (m *Map) Reserve(n int) {
	if (m.live+m.dead+n)*maxLoadDen >= len(m.vals)*maxLoadNum {
		m.grow(m.live + n)
	}
}

// Add inserts a (key, val) entry. val must be non-negative. Duplicate keys
// are permitted; each Add creates an independent entry.
func (m *Map) Add(key uint32, val int32) {
	if val < 0 {
		panic("ihash: negative value")
	}
	if (m.live+m.dead+1)*maxLoadDen >= len(m.vals)*maxLoadNum {
		m.grow(m.live + 1)
	}
	mask := uint32(len(m.vals) - 1)
	i := hash(key) & mask
	for m.vals[i] >= 0 {
		i = (i + 1) & mask
	}
	if m.vals[i] == tombstone {
		m.dead--
	}
	m.keys[i] = key
	m.vals[i] = val
	m.live++
}

// FindAny returns the value of some live entry with the given key, or -1 if
// none exists. With duplicate keys the choice among them is unspecified but
// deterministic for a given table state.
func (m *Map) FindAny(key uint32) int32 {
	if m.live == 0 {
		return -1
	}
	mask := uint32(len(m.vals) - 1)
	i := hash(key) & mask
	for {
		v := m.vals[i]
		if v == empty {
			return -1
		}
		if v >= 0 && m.keys[i] == key {
			return v
		}
		i = (i + 1) & mask
	}
}

// Contains reports whether any live entry has the given key.
func (m *Map) Contains(key uint32) bool { return m.FindAny(key) >= 0 }

// Remove deletes the entry (key, val) and reports whether it was present.
func (m *Map) Remove(key uint32, val int32) bool {
	if m.live == 0 {
		return false
	}
	mask := uint32(len(m.vals) - 1)
	i := hash(key) & mask
	for {
		v := m.vals[i]
		if v == empty {
			return false
		}
		if v == val && m.keys[i] == key {
			m.vals[i] = tombstone
			m.live--
			m.dead++
			// Rehash when tombstones dominate, to keep probes short.
			if m.dead*2 > len(m.vals) {
				m.grow(m.live)
			}
			return true
		}
		i = (i + 1) & mask
	}
}

// Replace rewrites the value of entry (key, old) to new and reports whether
// the entry was found. It is used when a swap-delete moves a neighbor to a
// different slot of the adjacency row.
func (m *Map) Replace(key uint32, old, new int32) bool {
	if new < 0 {
		panic("ihash: negative replacement value")
	}
	if m.live == 0 {
		return false
	}
	mask := uint32(len(m.vals) - 1)
	i := hash(key) & mask
	for {
		v := m.vals[i]
		if v == empty {
			return false
		}
		if v == old && m.keys[i] == key {
			m.vals[i] = new
			return true
		}
		i = (i + 1) & mask
	}
}

// CountKey returns the number of live entries with the given key (the edge
// multiplicity of dst in a multigraph row).
func (m *Map) CountKey(key uint32) int {
	if m.live == 0 {
		return 0
	}
	mask := uint32(len(m.vals) - 1)
	i := hash(key) & mask
	n := 0
	for {
		v := m.vals[i]
		if v == empty {
			return n
		}
		if v >= 0 && m.keys[i] == key {
			n++
		}
		i = (i + 1) & mask
	}
}

// Range calls fn for every live entry until fn returns false. Iteration
// order is unspecified.
func (m *Map) Range(fn func(key uint32, val int32) bool) {
	for i, v := range m.vals {
		if v >= 0 && !fn(m.keys[i], v) {
			return
		}
	}
}
