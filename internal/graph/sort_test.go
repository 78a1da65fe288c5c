package graph

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkSortMatchesStable sorts a copy of ups and compares it, update for
// update, with sort.SliceStable, the reference. Every update carries its
// input position in Dst, so any reordering within a source shows.
func checkSortMatchesStable(t *testing.T, name string, ups []Update) {
	t.Helper()
	for i := range ups {
		ups[i].Dst = VertexID(i)
	}
	want := slices.Clone(ups)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Src < want[j].Src })
	got := slices.Clone(ups)
	SortUpdatesBySrc(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d): position %d is %+v, want %+v", name, len(ups), i, got[i], want[i])
		}
	}
}

func TestSortUpdatesBySrcMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	everyByte := []VertexID{0, 1, 0xFF, 0x100, 0xFF00, 0x10000, 0xFF0000, 0x1000000, 0xFF000000, 1<<32 - 1, 1<<32 - 2}
	gens := []struct {
		name string
		src  func(i, n int) VertexID
	}{
		{"random", func(int, int) VertexID { return VertexID(rng.Uint32()) }},
		{"every-byte", func(int, int) VertexID { return everyByte[rng.Intn(len(everyByte))] }},
		{"duplicates", func(int, int) VertexID { return VertexID(rng.Intn(4)) }},
		{"one-source", func(int, int) VertexID { return 1<<32 - 1 }},
		{"top-byte-only", func(int, int) VertexID { return VertexID(rng.Intn(3)) << 24 }},
		{"sorted", func(i, _ int) VertexID { return VertexID(i / 3) }},
		{"reversed", func(i, n int) VertexID { return VertexID((n - i) * 70001) }},
	}
	for _, n := range []int{0, 1, 2, 31, 32, 33, 257, 5000} {
		for _, gen := range gens {
			ups := make([]Update, n)
			for i := range ups {
				ups[i] = Update{Op: Op(rng.Intn(2)), Src: gen.src(i, n)}
			}
			checkSortMatchesStable(t, gen.name, ups)
		}
	}

	// Sorted input is left as it is, without a scratch buffer.
	sorted := make([]Update, 4096)
	for i := range sorted {
		sorted[i].Src = VertexID(i / 2)
	}
	if a := testing.AllocsPerRun(20, func() { SortUpdatesBySrc(sorted) }); a != 0 {
		t.Errorf("sorted input: %.1f allocs per sort, want 0", a)
	}
}

// FuzzSortUpdatesBySrc compares the radix sort with the stable reference
// on arbitrary keys. The first byte keeps only that many low bits of
// every key (mod 33), so the fuzzer reaches both heavy duplicates and
// full 32-bit keys; each following 4 bytes are one key.
func FuzzSortUpdatesBySrc(f *testing.F) {
	f.Add([]byte{32, 1, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 3, 0, 0, 0})
	f.Add([]byte("\x02duplicate keys in a small alphabet, long enough to radix sort"))
	f.Add([]byte("\x20full thirty-two bit keys: every byte of the source is a digit to sort on"))
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		mask := uint64(1)<<(tape[0]%33) - 1
		tape = tape[1:]
		ups := make([]Update, len(tape)/4)
		for i := range ups {
			ups[i].Src = VertexID(uint64(binary.LittleEndian.Uint32(tape[4*i:])) & mask)
		}
		checkSortMatchesStable(t, "fuzz", ups)
	})
}
