// Differential oracle for the wire codec. encoding/gob — the codec this
// package used to ship every frame through — survives here as the
// reference: for a table of frames covering every kind and every optional
// field, the binary round trip, the gob round trip and the original must
// all agree. A reflection guard pins the field count of every struct the
// codec serialises, because unlike gob it does not pick a new field up by
// itself.
package tcpgob

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/obs"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// gobFrame is the value-typed frame union the gob transport used; the
// oracle compares frames in this shape so that pointer identity plays no
// part.
type gobFrame struct {
	Kind     uint8
	From     int
	Session  uint64
	Hello    fabric.Hello
	Walker   fabric.Walker
	Walkers  []fabric.Walker
	Ingest   fabric.Ingest
	Ack      fabric.Ack
	ViewReq  fabric.ViewRequest
	ViewRep  fabric.ViewReply
	MigBlock fabric.MigrateBlock
	MigDone  fabric.MigrateDone
	Credit   fabric.Credit
	Bcast    fabric.Broadcast
}

func flatten(f *frame) gobFrame {
	g := gobFrame{Kind: f.kind, From: f.from, Session: f.session}
	if f.hello != nil {
		g.Hello = *f.hello
	}
	if f.walker != nil {
		g.Walker = *f.walker
	}
	for _, w := range f.walkers {
		g.Walkers = append(g.Walkers, *w)
	}
	if f.ingest != nil {
		g.Ingest = *f.ingest
	}
	if f.ack != nil {
		g.Ack = *f.ack
	}
	if f.viewReq != nil {
		g.ViewReq = *f.viewReq
	}
	if f.viewRep != nil {
		g.ViewRep = *f.viewRep
	}
	if f.migBlock != nil {
		g.MigBlock = *f.migBlock
	}
	if f.migDone != nil {
		g.MigDone = *f.migDone
	}
	if f.credit != nil {
		g.Credit = *f.credit
	}
	if f.bcast != nil {
		g.Bcast = *f.bcast
	}
	return g
}

type oracleCase struct {
	name string
	f    frame
}

// midFlightWalker is the walker of TestWalkerFrameRoundTrip: growth-path
// IDs, a live RNG stream, accumulated telemetry.
func midFlightWalker() *fabric.Walker {
	r := xrand.New(77)
	r.Uint64()
	return &fabric.Walker{
		ID: 901, Cur: 4_294_967_290, Left: 13, Rng: r.State(), Record: true,
		Path:  []graph.VertexID{3, 4_000_000_000, 4_294_967_290},
		Steps: 67, Transfers: 9, Local: 58,
	}
}

// hubView is a full view of a degree-deg vertex: every column populated,
// alias table and decimal group included.
func hubView(deg int) core.VertexView {
	v := core.VertexView{
		Vertex: 4_123_456_789, Epoch: 44<<32 | 6, Applied: 987654, RadixBits: 3,
		Dec: true, DecSum: 0.75,
	}
	reg := core.ViewGroup{GID: 2, Kind: core.KindRegular, One: -1}
	for i := 0; i < deg; i++ {
		v.Dsts = append(v.Dsts, graph.VertexID(4_294_967_295-i))
		v.Bias = append(v.Bias, uint64(i+1)<<20)
		v.Rem = append(v.Rem, float32(i%4)*0.25)
		v.AliasCut = append(v.AliasCut, ^uint64(0)-uint64(i))
		v.AliasIdx = append(v.AliasIdx, int32(deg-1-i))
		if i%2 == 0 {
			reg.List = append(reg.List, int32(i))
		} else {
			v.DecList = append(v.DecList, int32(i))
		}
	}
	reg.Count = int32(len(reg.List))
	v.Groups = []core.ViewGroup{
		reg,
		{GID: -3, Kind: core.KindOne, Count: 1, One: 1},
		{GID: 9, Kind: core.KindDense, Count: int32(deg), One: -1},
	}
	v.Cum = []float64{12, 14, 14.5, 15.25}
	return v
}

func walkerBatch(n int) []*fabric.Walker {
	r := xrand.New(3)
	ws := make([]*fabric.Walker, n)
	for i := range ws {
		r.Uint64()
		ws[i] = &fabric.Walker{
			ID: uint64(100 + i), Cur: graph.VertexID(4_000_000_000 + i), Left: i,
			Rng: r.State(), Steps: int64(i) * 7, Transfers: int64(i), Local: int64(i) * 5, Remote: int64(i % 2),
			Record: i%2 == 0, Failed: i == 5, Reroutes: i % 3, Origin: uint64(i) << 40,
		}
		if ws[i].Record {
			ws[i].Path = []graph.VertexID{graph.VertexID(i), 4_294_967_295}
		}
	}
	return ws
}

func updateBatch(n int, float bool) []graph.Update {
	ups := make([]graph.Update, n)
	for i := range ups {
		ups[i] = graph.Update{Op: graph.OpInsert, Src: graph.VertexID(2_100_000_000 + i), Dst: graph.VertexID(4_294_967_295 - i), Bias: uint64(i) + 1}
		if i%7 == 3 {
			ups[i].Op = graph.OpDelete
		}
		if float && i%2 == 1 {
			ups[i].FBias = 0.001953125 * float64(i)
		}
	}
	return ups
}

// oracleFrames covers every frame kind and every optional field.
func oracleFrames() []oracleCase {
	return []oracleCase{
		{"hello_coord", frame{kind: kHelloCoord, hello: &fabric.Hello{
			Role: fabric.RoleRead, Shards: 4, Shard: 2, RangeSize: 1009,
			NumVertices: 4_000_000_001,
			Sampler: core.Config{
				RadixBits: 4, Adaptive: true, AlphaPct: 37.5, BetaPct: 12.5, FloatBias: true,
				Lambda: 4096, IndexThreshold: 24, Workers: 3, Instrument: true,
			},
			Peers:    []string{"127.0.0.1:1", "127.0.0.1:2", "", "[::1]:4"},
			Session:  0xDEADBEEFCAFE,
			Cache:    fabric.CacheSpec{Off: true, MinDegree: 4},
			Replicas: 2,
		}}},
		{"hello_coord_zero", frame{kind: kHelloCoord, hello: &fabric.Hello{}}},
		{"hello_peer", frame{kind: kHelloPeer, from: 3, session: 0xFFFF_FFFF_FFFF_FFFF}},
		{"walker", frame{kind: kWalker, walker: midFlightWalker()}},
		{"walker_record_no_path", frame{kind: kWalker, walker: &fabric.Walker{ID: 1, Cur: 5, Left: 3, Record: true}}},
		{"walker_batch16", frame{kind: kWalkerBatch, walkers: walkerBatch(16)}},
		{"updates_float", frame{kind: kUpdates, ingest: &fabric.Ingest{
			Ups: updateBatch(9, true), Watermarks: []int64{12, 0, 4_000_000_000_000},
		}}},
		{"updates_int_boot", frame{kind: kUpdates, ingest: &fabric.Ingest{
			Ups: updateBatch(5, false), Boot: true, Watermarks: []int64{1},
		}}},
		{"barrier_dump", frame{kind: kBarrier, ingest: &fabric.Ingest{
			Barrier: 42, Dump: true, Watermarks: []int64{7, 9},
		}}},
		{"ingest_control", frame{kind: kUpdates, ingest: &fabric.Ingest{
			Offer:      fabric.MigrateOffer{Block: 1 << 40, To: 3, Epoch: 7},
			Commit:     fabric.MigrateCommit{Block: 9, From: 4, To: 2, Epoch: 8, MinWatermark: 4096},
			Down:       fabric.ShardDown{Shard: 1, Epoch: 5, Up: true},
			Plan:       &fabric.PlanState{Epoch: 6, DeadMask: 1 << 63},
			Watermarks: []int64{5, 0, 12},
		}}},
		{"retire_failed", frame{kind: kRetire, walker: &fabric.Walker{
			ID: 7, Cur: 1, Failed: true, Reroutes: 2, Origin: 99, Record: true, Path: []graph.VertexID{1}, Remote: 5,
		}}},
		{"ack_full", frame{kind: kAck, ack: &fabric.Ack{
			Shard: 3, Seq: 42, Updates: 10_000, Dropped: 2, Err: "walk: zero bias",
			Vertices: 4_000_000_001, Steps: 123456,
			Edges: []graph.Edge{
				{Src: 1, Dst: 4_294_967_294, Bias: 9},
				{Src: 2_500_000_000, Dst: 3, Bias: 1, FBias: 0.25},
			},
			Cache: fabric.CacheTallies{LocalHits: 100, LocalStale: 1, RemoteHits: 7, RemoteStale: 2, ViewRequests: 3, ViewsServed: 5},
			Obs: obs.Sample{Counters: []obs.KV{
				{Key: `bingo_walk_steps_total{svc="node"}`, Val: 1 << 40}, {Key: "", Val: -1},
			}},
		}}},
		{"ack_bare", frame{kind: kAck, ack: &fabric.Ack{Shard: 1, Seq: 7}}},
		{"view_req", frame{kind: kViewReq, viewReq: &fabric.ViewRequest{From: 3, Vertex: 4_123_456_789, Origin: 17}}},
		{"view_rep_hub", frame{kind: kViewRep, viewRep: &fabric.ViewReply{
			From: 1, Vertex: 4_123_456_789, Hub: true, Applied: 987654, View: hubView(6), Origin: 1 << 50,
		}}},
		{"view_rep_not_hub", frame{kind: kViewRep, viewRep: &fabric.ViewReply{From: 1, Vertex: 8, Applied: 3}}},
		{"shutdown", frame{kind: kShutdown}},
		{"mig_block", frame{kind: kMigBlock, migBlock: &fabric.MigrateBlock{
			Block: 3, From: 1, Epoch: 5, Watermark: 99999, Rows: updateBatch(4, true),
		}}},
		{"mig_done", frame{kind: kMigDone, migDone: &fabric.MigrateDone{
			Shard: 2, Block: 1 << 33, Epoch: 6, Edges: 1234, Err: "install failed",
		}}},
		{"credit", frame{kind: kCredit, credit: &fabric.Credit{Shard: 1, Credited: 1 << 41}}},
		{"broadcast", frame{kind: kBroadcast, bcast: &fabric.Broadcast{
			Seq: 12, Epoch: 4, DeadMask: 5, RangeSize: 150, Replicas: 2,
			Vertices: 4_000_000_001, Watermarks: []int64{1, 2, 3}, Applied: 6,
		}}},
	}
}

func TestFrameOracle(t *testing.T) {
	seen := map[uint8]bool{}
	for _, tc := range oracleFrames() {
		seen[tc.f.kind] = true
		want := flatten(&tc.f)

		wire := appendFrame(nil, &tc.f)
		if n := int(le.Uint32(wire)); n != len(wire)-4 {
			t.Fatalf("%s: length header %d for a %d-byte body", tc.name, n, len(wire)-4)
		}
		dec, err := decodeFrame(wire[4:])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := flatten(&dec); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: binary round trip\n got %+v\nwant %+v", tc.name, got, want)
		}

		var buf bytes.Buffer
		var viaGob gobFrame
		if err := gob.NewEncoder(&buf).Encode(&want); err != nil {
			t.Fatalf("%s: gob encode: %v", tc.name, err)
		}
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatalf("%s: gob decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(viaGob, want) {
			t.Errorf("%s: gob round trip\n got %+v\nwant %+v", tc.name, viaGob, want)
		}
	}
	for k := 1; k < len(kindNames); k++ {
		if !seen[uint8(k)] {
			t.Errorf("oracle table has no %s frame", kindNames[k])
		}
	}
}

// TestOracleTableCoversEveryField keeps the table itself honest: every
// field of every message must be non-zero in at least one case, or a
// codec that dropped it would still pass the oracle.
func TestOracleTableCoversEveryField(t *testing.T) {
	set := map[string]bool{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Pointer:
			if v.IsNil() {
				v = reflect.New(v.Type().Elem())
			}
			walk(path, v.Elem())
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Struct {
				for i := 0; i < v.Len(); i++ {
					walk(path+"[]", v.Index(i))
				}
				if v.Len() == 0 {
					walk(path+"[]", reflect.Zero(v.Type().Elem()))
				}
				return
			}
			fallthrough
		default:
			set[path] = set[path] || !v.IsZero()
		}
	}
	for _, tc := range oracleFrames() {
		walk("frame", reflect.ValueOf(flatten(&tc.f)))
	}
	for path, ok := range set {
		if !ok {
			t.Errorf("no oracle case sets %s", path)
		}
	}
}

// TestCodecFieldCountGuard fails when a struct the codec serialises gains
// or loses a field: extend wire.go (and bump wireVersion), add the field
// to the oracle table, then update the count here.
func TestCodecFieldCountGuard(t *testing.T) {
	for _, g := range []struct {
		v    any
		want int
	}{
		{frame{}, 14},
		{fabric.Walker{}, 13},
		{xrand.State{}, 4},
		{fabric.Ingest{}, 9},
		{fabric.MigrateOffer{}, 3},
		{fabric.MigrateCommit{}, 5},
		{fabric.ShardDown{}, 3},
		{fabric.PlanState{}, 2},
		{fabric.Ack{}, 10},
		{fabric.CacheTallies{}, 6},
		{obs.Sample{}, 1},
		{obs.KV{}, 2},
		{fabric.ViewRequest{}, 3},
		{fabric.ViewReply{}, 6},
		{core.VertexView{}, 14},
		{core.ViewGroup{}, 5},
		{fabric.MigrateBlock{}, 5},
		{fabric.MigrateDone{}, 5},
		{fabric.Credit{}, 2},
		{fabric.Broadcast{}, 8},
		{fabric.Hello{}, 10},
		{core.Config{}, 9},
		{fabric.CacheSpec{}, 2},
		{graph.Update{}, 5},
		{graph.Edge{}, 4},
	} {
		if typ := reflect.TypeOf(g.v); typ.NumField() != g.want {
			t.Errorf("%v has %d fields, the wire codec was written for %d", typ, typ.NumField(), g.want)
		}
	}
}

// TestDecodeRejects pins the loud failures: a frame that is not exactly
// what an encoder would have produced is an error, never a guess.
func TestDecodeRejects(t *testing.T) {
	walker := appendFrame(nil, &frame{kind: kWalker, walker: midFlightWalker()})[4:]
	hello := appendFrame(nil, &frame{kind: kHelloPeer, from: 1, session: 2})[4:]
	updates := appendFrame(nil, &frame{kind: kUpdates, ingest: &fabric.Ingest{Ups: updateBatch(3, false)}})[4:]
	mutate := func(b []byte, at int, v byte) []byte {
		b = bytes.Clone(b)
		b[at] = v
		return b
	}
	for name, body := range map[string][]byte{
		"empty":            nil,
		"unknown kind":     {0x7F},
		"kind zero":        {0},
		"truncated":        walker[:len(walker)-1],
		"trailing byte":    append(bytes.Clone(walker), 0),
		"wire version":     mutate(hello, 1, wireVersion+1),
		"unknown flag bit": mutate(walker, 1+8+4+8+32, 0x80),
		"path count past the frame": append(bytes.Clone(walker[:len(walker)-3*4-4]),
			0xFF, 0xFF, 0xFF, 0x7F),
		// ingest body: kind, flags, barrier u64, watermark count u32, then
		// the batch's count u32 and column flags.
		"all-zero float column": mutate(updates, 1+1+8+4+4, colFBias),
	} {
		if f, err := decodeFrame(body); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, flatten(&f))
		}
	}
}
