package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// bulkConfigs are the factorizations the whole-row build paths are
// checked under: binary and wide radixes, integer and float biases, and
// the all-regular baseline.
func bulkConfigs() map[string]Config {
	radix4 := DefaultConfig()
	radix4.RadixBits = 4
	float := DefaultConfig()
	float.FloatBias = true
	float2 := float
	float2.RadixBits = 2
	regular := DefaultConfig()
	regular.Adaptive = false
	return map[string]Config{"int-radix1": DefaultConfig(), "int-radix4": radix4, "float-radix1": float, "float-radix2": float2, "baseline": regular}
}

// randomRowUpdate draws one insert of a row whose biases come from one of
// a few regimes — few distinct values (dense groups), a wide uniform
// spread (sparse and one-element groups) and a heavy tail — so every group
// kind appears.
func randomRowUpdate(r *xrand.RNG, u graph.VertexID, n, regime int, float bool) graph.Update {
	up := graph.Update{Op: graph.OpInsert, Src: u, Dst: graph.VertexID(r.Intn(n))}
	if float {
		w := 0.05 + 60*r.Float64()
		if regime == 0 {
			w = float64(1 + r.Intn(3))
		}
		up.Bias = uint64(w)
		up.FBias = w - float64(up.Bias)
		return up
	}
	switch regime {
	case 0:
		up.Bias = uint64(1 + r.Intn(3))
	case 1:
		up.Bias = uint64(1 + r.Intn(1<<12))
	default:
		up.Bias = uint64(1) << r.Intn(20)
	}
	return up
}

// TestBulkInsertMatchesIncremental checks the empty-record path of the
// batched workflow against the incremental one it short-cuts: for random
// rows of two or more inserts into empty vertices — fresh ones, and ones
// emptied by earlier deletions — ApplyBatch (which bulk-builds) and the
// incremental insert → rebuild path must leave the same rows, group kinds,
// member lists, alias buckets, decimal group and fixed-seed SampleSlot
// sequences, count the same Table 4 touches and conversions, and the bulk
// build must not cost more bytes.
func TestBulkInsertMatchesIncremental(t *testing.T) {
	for name, cfg := range bulkConfigs() {
		t.Run(name, func(t *testing.T) {
			const n = 300
			r := xrand.New(0xB01C)
			bulk, err := New(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := New(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// History: vertices 0..49 get rows and lose them again, through
			// a batch and then streaming deletions, so their records are
			// empty but not untouched.
			var hist []graph.Update
			for u := 0; u < 50; u++ {
				for k := 2 + r.Intn(40); k > 0; k-- {
					hist = append(hist, randomRowUpdate(r, graph.VertexID(u), n, k%3, cfg.FloatBias))
				}
			}
			for _, s := range []*Sampler{bulk, inc} {
				if _, err := s.ApplyBatch(append([]graph.Update(nil), hist...)); err != nil {
					t.Fatal(err)
				}
				for u := graph.VertexID(0); u < 50; u++ {
					for s.Degree(u) > 0 {
						if err := s.Delete(u, s.Neighbor(u, int32(s.Degree(u)-1))); err != nil {
							t.Fatal(err)
						}
					}
				}
				s.ResetConversionStats()
			}

			// The batch: every vertex but the last gets a row of ≥ 2
			// inserts; one is a hub.
			var ups []graph.Update
			for u := 0; u < n-1; u++ {
				d := 2 + r.Intn(30)
				switch {
				case u == 7:
					d = 3000
				case u%17 == 0:
					d = 100 + r.Intn(500)
				}
				regime := r.Intn(3)
				for k := 0; k < d; k++ {
					ups = append(ups, randomRowUpdate(r, graph.VertexID(u), n, regime, cfg.FloatBias))
				}
			}
			if _, err := inc.ValidateUpdates(ups); err != nil {
				t.Fatal(err)
			}
			// The incremental side takes each vertex's run through the
			// general path directly.
			sc := newBatchScratch()
			var incIns int
			for lo := 0; lo < len(ups); {
				hi := lo
				for hi < len(ups) && ups[hi].Src == ups[lo].Src {
					hi++
				}
				u := ups[lo].Src
				inc.vx[u].dirty = true
				incIns += inc.applyIncremental(u, append([]graph.Update(nil), ups[lo:hi]...), sc, time.Time{}).Inserted
				lo = hi
			}
			inc.cc.merge(&sc.cc)
			res, err := bulk.ApplyBatch(ups)
			if err != nil {
				t.Fatal(err)
			}
			if res.Inserted != incIns {
				t.Fatalf("bulk inserted %d, incremental %d", res.Inserted, incIns)
			}

			for _, s := range []*Sampler{bulk, inc} {
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			for u := 0; u < n; u++ {
				if msg := compareRecords(bulk, inc, graph.VertexID(u)); msg != "" {
					t.Fatalf("vertex %d: %s", u, msg)
				}
			}
			bc, bt := bulk.ConversionStats()
			ic, it := inc.ConversionStats()
			if bc != ic || bt != it {
				t.Errorf("Table 4 counters differ: bulk conv %v touches %v, incremental conv %v touches %v", bc, bt, ic, it)
			}
			if bf, ifp := bulk.Footprint(), inc.Footprint(); bf > ifp {
				t.Errorf("bulk build holds %d B, incremental %d B", bf, ifp)
			}
		})
	}
}

// compareRecords returns "" when u's record draws identically in a and b:
// the same row, groups (gid, kind, count, members in order), buckets,
// mass, decimal group and fixed-seed SampleSlot sequence.
func compareRecords(a, b *Sampler, u graph.VertexID) string {
	if ra, rb := a.AppendRowUpdates(u, nil), b.AppendRowUpdates(u, nil); !reflect.DeepEqual(ra, rb) {
		return "rows differ"
	}
	va, vb := &a.vx[u], &b.vx[u]
	if len(va.groups) != len(vb.groups) {
		return fmt.Sprintf("%d groups vs %d", len(va.groups), len(vb.groups))
	}
	for i := range va.groups {
		ga, gb := &va.groups[i], &vb.groups[i]
		if ga.gid != gb.gid || ga.kind != gb.kind || ga.count != gb.count || ga.one != gb.one || !slices.Equal(ga.list, gb.list) {
			return fmt.Sprintf("group %d: gid %d kind %v count %d vs gid %d kind %v count %d", i, ga.gid, ga.kind, ga.count, gb.gid, gb.kind, gb.count)
		}
	}
	if !reflect.DeepEqual(va.buckets, vb.buckets) || va.total != vb.total {
		return "alias buckets differ"
	}
	if (va.dec == nil) != (vb.dec == nil) || va.dec != nil && (!slices.Equal(va.dec.list, vb.dec.list) || va.dec.sum != vb.dec.sum) {
		return "decimal groups differ"
	}
	ra, rb := xrand.New(uint64(u)+1), xrand.New(uint64(u)+1)
	for k := 0; k < 64; k++ {
		sa, oka := a.SampleSlot(u, ra)
		sb, okb := b.SampleSlot(u, rb)
		if sa != sb || oka != okb {
			return fmt.Sprintf("draw %d: slot %d vs %d", k, sa, sb)
		}
	}
	return ""
}

// randomCSR builds a snapshot over n vertices with a hub, mixed bias
// regimes and some empty rows.
func randomCSR(t *testing.T, n int, float bool, seed uint64) *graph.CSR {
	t.Helper()
	r := xrand.New(seed)
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		d := r.Intn(12)
		if u == n/3 {
			d = 2500
		}
		regime := r.Intn(3)
		for k := 0; k < d; k++ {
			up := randomRowUpdate(r, graph.VertexID(u), n, regime, float)
			edges = append(edges, graph.Edge{Src: up.Src, Dst: up.Dst, Bias: up.Bias, FBias: up.FBias})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewFromCSRParallelMatchesSerial builds the same snapshot on one and
// on four workers: the records and adjacency store must be identical,
// field for field.
func TestNewFromCSRParallelMatchesSerial(t *testing.T) {
	for name, cfg := range bulkConfigs() {
		t.Run(name, func(t *testing.T) {
			g := randomCSR(t, 3000, cfg.FloatBias, 0xC5A)
			cfg.Workers = 1
			serial, err := NewFromCSR(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 4
			par, err := NewFromCSR(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Lambda() != par.Lambda() {
				t.Fatalf("λ %v serial, %v parallel", serial.Lambda(), par.Lambda())
			}
			if !reflect.DeepEqual(serial.vx, par.vx) {
				t.Error("vertex records differ between one and four workers")
			}
			if !reflect.DeepEqual(serial.adjs, par.adjs) {
				t.Error("adjacency stores differ between one and four workers")
			}
			if err := par.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNewFromCSRReportsLowestBadEdge plants bad edges — a zero bias, a
// float weight that overflows λ — in vertices that fall in different
// worker chunks, two of them in one row: whatever the schedule, the error
// names the lowest failing vertex and, within it, the lowest slot.
func TestNewFromCSRReportsLowestBadEdge(t *testing.T) {
	const n = 8 * applyChunk
	lowV, highV := graph.VertexID(2*applyChunk+7), graph.VertexID(6*applyChunk+5)
	for _, float := range []bool{false, true} {
		t.Run(fmt.Sprintf("float=%v", float), func(t *testing.T) {
			var edges []graph.Edge
			for u := 0; u < n; u++ {
				for k := 0; k < 3; k++ {
					edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID((u + k + 1) % n), Bias: 2})
				}
			}
			bad := graph.Edge{Bias: 0} // integer mode: zero bias
			if float {
				bad = graph.Edge{Bias: 1 << 62} // float mode: overflows λ
			}
			// Slots 1 and 2 of lowV (dst lowV+2 and lowV+3 after the CSR's
			// stable per-source order) and slot 0 of highV go bad.
			edges[int(lowV)*3+1].Bias, edges[int(lowV)*3+2].Bias = bad.Bias, bad.Bias
			edges[int(highV)*3].Bias = bad.Bias
			g, err := graph.FromEdges(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.FloatBias = float
			cfg.Lambda = 1024
			cfg.Workers = 4
			want := fmt.Sprintf("edge (%d,%d)", lowV, lowV+2)
			for i := 0; i < 30; i++ {
				_, err := NewFromCSR(g, cfg)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("run %d: err = %v, want one naming %s", i, err, want)
				}
				if !float && !errors.Is(err, ErrZeroBias) {
					t.Fatalf("run %d: err = %v, want ErrZeroBias", i, err)
				}
			}
		})
	}
}
