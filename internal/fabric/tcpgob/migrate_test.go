// Wire coverage for the replica-priming copy protocol: the offer and
// commit riding the ingest stream, the snapshotted block on the peer
// stream, and the completion report on the coordinator link must all
// round-trip unchanged — with growth-path vertex IDs and float-mode
// weights in the shipped rows.
package tcpgob

import (
	"reflect"
	"testing"

	"github.com/bingo-rw/bingo/internal/fabric"
	"github.com/bingo-rw/bingo/internal/graph"
)

func TestMigrateIngestFrameRoundTrip(t *testing.T) {
	offer := fabric.Ingest{
		Offer:      fabric.MigrateOffer{Block: 1 << 40, To: 3, Epoch: 7},
		Watermarks: []int64{5, 0, 12},
	}
	got := roundTrip(t, &frame{kind: kUpdates, ingest: &offer})
	if !reflect.DeepEqual(*got.ingest, offer) {
		t.Fatalf("offer element: got %+v, want %+v", got.ingest, offer)
	}
	if got.ingest.IsBarrier() || got.ingest.Commit.Epoch != 0 {
		t.Fatal("offer element misclassified after the wire")
	}

	commit := fabric.Ingest{
		Commit:     fabric.MigrateCommit{Block: 9, From: 0, To: 2, Epoch: 8, MinWatermark: 4096},
		Watermarks: []int64{1, 2, 3},
	}
	got = roundTrip(t, &frame{kind: kUpdates, ingest: &commit})
	if !reflect.DeepEqual(*got.ingest, commit) {
		t.Fatalf("commit element: got %+v, want %+v", got.ingest, commit)
	}

	// A dump barrier stays a barrier and keeps its flag.
	dump := fabric.Ingest{Barrier: 11, Dump: true, Watermarks: []int64{0, 0, 0}}
	got = roundTrip(t, &frame{kind: kBarrier, ingest: &dump})
	if !got.ingest.IsBarrier() || !got.ingest.Dump {
		t.Fatalf("dump barrier lost its markers: %+v", got.ingest)
	}
}

func TestMigrateBlockFrameRoundTrip(t *testing.T) {
	mb := fabric.MigrateBlock{
		Block:     3,
		From:      1,
		Epoch:     5,
		Watermark: 99999,
		Rows: []graph.Update{
			{Op: graph.OpInsert, Src: 4_294_967_290, Dst: 4_000_000_000, Bias: 7},
			{Op: graph.OpInsert, Src: 4_294_967_290, Dst: 1, Bias: 2, FBias: 0.625},
		},
	}
	got := roundTrip(t, &frame{kind: kMigBlock, migBlock: &mb})
	if got.kind != kMigBlock || !reflect.DeepEqual(*got.migBlock, mb) {
		t.Fatalf("block round-trip: got %+v, want %+v", got.migBlock, mb)
	}
}

func TestMigrateDoneFrameRoundTrip(t *testing.T) {
	for _, d := range []fabric.MigrateDone{
		{Shard: 2, Block: 3, Epoch: 5, Edges: 1234},
		{Shard: 1, Block: 1 << 33, Epoch: 6, Err: "install failed"},
	} {
		got := roundTrip(t, &frame{kind: kMigDone, migDone: &d})
		if got.kind != kMigDone || !reflect.DeepEqual(*got.migDone, d) {
			t.Fatalf("done round-trip: got %+v, want %+v", got.migDone, d)
		}
	}
}
