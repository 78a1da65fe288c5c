// Package graph defines the shared graph vocabulary of the repository:
// edges, snapshots (CSR), dynamic-update records, and edge-list text I/O.
//
// Following the paper's snapshot model (Definition 2.1), a dynamic graph is
// a base snapshot plus a sequence of update events; engines ingest a CSR
// snapshot at build time and then apply graph.Update streams.
package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// VertexID identifies a vertex. The engines support up to 2^32-1 vertices,
// which covers the paper's largest dataset (Twitter, 41.7 M vertices) with
// two orders of magnitude of headroom.
type VertexID = uint32

// Edge is a directed, weighted edge. Bias is the integer sampling bias
// (the fast path); FBias carries the fractional part in float-bias mode
// and is zero otherwise.
type Edge struct {
	Src, Dst VertexID
	Bias     uint64
	FBias    float64
}

// Op enumerates dynamic-graph event kinds.
type Op uint8

const (
	// OpInsert adds an edge.
	OpInsert Op = iota
	// OpDelete removes one instance of an edge.
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Update is a single dynamic-graph event. For OpDelete the bias fields are
// ignored (the engine deletes one live instance of Src→Dst).
type Update struct {
	Op       Op
	Src, Dst VertexID
	Bias     uint64
	FBias    float64
}

// CSR is an immutable graph snapshot in compressed sparse row form.
type CSR struct {
	Offsets []int64 // len NumVertices+1
	Dst     []VertexID
	Bias    []uint64
	FBias   []float64 // nil unless float biases were supplied
}

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the edge count.
func (g *CSR) NumEdges() int64 { return int64(len(g.Dst)) }

// Degree returns the out-degree of u.
func (g *CSR) Degree(u VertexID) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns the destination slice of u. Callers must not mutate it.
func (g *CSR) Neighbors(u VertexID) []VertexID {
	return g.Dst[g.Offsets[u]:g.Offsets[u+1]]
}

// Biases returns the bias slice of u. Callers must not mutate it.
func (g *CSR) Biases(u VertexID) []uint64 {
	return g.Bias[g.Offsets[u]:g.Offsets[u+1]]
}

// FBiases returns the fractional-bias slice of u, or nil outside float mode.
func (g *CSR) FBiases(u VertexID) []float64 {
	if g.FBias == nil {
		return nil
	}
	return g.FBias[g.Offsets[u]:g.Offsets[u+1]]
}

// Stats summarizes a snapshot for Table 2.
type Stats struct {
	Vertices  int
	Edges     int64
	AvgDegree float64
	MaxDegree int
}

// ComputeStats scans the snapshot and returns its Table 2 row.
func (g *CSR) ComputeStats() Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	for u := 0; u < s.Vertices; u++ {
		d := g.Degree(VertexID(u))
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if s.Vertices > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Vertices)
	}
	return s
}

// FromEdges builds a CSR snapshot over numVertices vertices. Edges are
// grouped by source; relative order within a source is preserved. Edges
// referencing vertices >= numVertices cause an error. If any edge carries a
// non-zero FBias the snapshot stores the float column.
func FromEdges(numVertices int, edges []Edge) (*CSR, error) {
	g := &CSR{
		Offsets: make([]int64, numVertices+1),
		Dst:     make([]VertexID, len(edges)),
		Bias:    make([]uint64, len(edges)),
	}
	hasF := false
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside vertex space %d", e.Src, e.Dst, numVertices)
		}
		g.Offsets[e.Src+1]++
		if e.FBias != 0 {
			hasF = true
		}
	}
	for i := 1; i <= numVertices; i++ {
		g.Offsets[i] += g.Offsets[i-1]
	}
	if hasF {
		g.FBias = make([]float64, len(edges))
	}
	cursor := make([]int64, numVertices)
	for _, e := range edges {
		p := g.Offsets[e.Src] + cursor[e.Src]
		cursor[e.Src]++
		g.Dst[p] = e.Dst
		g.Bias[p] = e.Bias
		if hasF {
			g.FBias[p] = e.FBias
		}
	}
	return g, nil
}

// Edges flattens the snapshot back into an edge slice.
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, len(g.Dst))
	for u := 0; u < g.NumVertices(); u++ {
		for p := g.Offsets[u]; p < g.Offsets[u+1]; p++ {
			e := Edge{Src: VertexID(u), Dst: g.Dst[p], Bias: g.Bias[p]}
			if g.FBias != nil {
				e.FBias = g.FBias[p]
			}
			out = append(out, e)
		}
	}
	return out
}

// Footprint returns the bytes held by the snapshot.
func (g *CSR) Footprint() int64 {
	b := int64(cap(g.Offsets))*8 + int64(cap(g.Dst))*4 + int64(cap(g.Bias))*8
	if g.FBias != nil {
		b += int64(cap(g.FBias)) * 8
	}
	return b
}

// WriteEdgeList writes the snapshot as "src dst bias" lines (bias printed
// as integer, or as float when the snapshot has fractional biases).
func (g *CSR) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.NumVertices(); u++ {
		for p := g.Offsets[u]; p < g.Offsets[u+1]; p++ {
			var err error
			if g.FBias != nil {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", u, g.Dst[p], float64(g.Bias[p])+g.FBias[p])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", u, g.Dst[p], g.Bias[p])
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses "src dst [bias]" lines. Missing biases default to 1.
// Fractional biases are split into integer and fractional parts. Lines
// starting with '#' or '%' are comments. The vertex space is sized to the
// maximum ID seen.
func ReadEdgeList(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := VertexID(0)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst [bias]', got %q", line, text)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %v", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %v", line, err)
		}
		e := Edge{Src: VertexID(src), Dst: VertexID(dst), Bias: 1}
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("graph: line %d: bad bias %q", line, fields[2])
			}
			e.Bias = uint64(w)
			e.FBias = w - float64(e.Bias)
		}
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return nil, errors.New("graph: empty edge list")
	}
	return FromEdges(int(maxID)+1, edges)
}

// SortUpdatesBySrc stably sorts updates by source vertex, in place, the
// CPU-side reordering step of the paper's batched update workflow (Figure
// 10(a)). Stability preserves the submission order of each vertex's
// events, which the paper's timestamp semantics require.
//
// It is an LSD radix sort on 8-bit digits of Src, O(n) with one n-sized
// scratch buffer, and it runs only as many passes as the largest Src
// needs. Input that is already sorted is detected in one pass and left
// untouched without allocating.
func SortUpdatesBySrc(ups []Update) {
	var maxSrc VertexID
	sorted := true
	for i := range ups {
		if ups[i].Src > maxSrc {
			maxSrc = ups[i].Src
		}
		if i > 0 && ups[i].Src < ups[i-1].Src {
			sorted = false
		}
	}
	if sorted {
		return
	}
	src, dst := ups, make([]Update, len(ups))
	for shift := 0; shift < 32 && maxSrc>>shift != 0; shift += 8 {
		var count [256]int
		for i := range src {
			count[byte(src[i].Src>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := byte(src[i].Src >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ups[0] {
		copy(ups, src)
	}
}
