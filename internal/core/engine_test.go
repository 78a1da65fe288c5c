package core

import (
	"testing"
	"time"

	"github.com/bingo-rw/bingo/internal/graph"
)

func TestDynamicAdapterMethods(t *testing.T) {
	s := runningExample(t, DefaultConfig())
	if err := s.InsertEdge(2, 3, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdates([]graph.Update{
		{Op: graph.OpInsert, Src: 0, Dst: 5, Bias: 2},
		{Op: graph.OpDelete, Src: 0, Dst: 5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdatesStreaming([]graph.Update{
		{Op: graph.OpInsert, Src: 0, Dst: 5, Bias: 2},
		{Op: graph.OpDelete, Src: 0, Dst: 5},
		{Op: graph.OpDelete, Src: 0, Dst: 5}, // missing: tolerated
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Config().RadixBits != 1 {
		t.Error("Config accessor wrong")
	}
}

func TestDynamicAdapterFloat(t *testing.T) {
	cfg := floatConfig()
	cfg.Lambda = 16
	s, _ := New(4, cfg)
	if err := s.InsertEdge(0, 1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdatesStreaming([]graph.Update{
		{Op: graph.OpInsert, Src: 0, Dst: 2, Bias: 0, FBias: 0.25},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseTimesInstrumented(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Instrument = true
	s, _ := New(64, cfg)
	var ups []graph.Update
	for i := 0; i < 500; i++ {
		ups = append(ups, graph.Update{Op: graph.OpInsert, Src: graph.VertexID(i % 8), Dst: graph.VertexID(i % 64), Bias: uint64(1 + i%100)})
	}
	if _, err := s.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	ph := s.PhaseTimes()
	if ph.Reorder <= 0 || ph.InsertDelete <= 0 || ph.Rebuild <= 0 {
		t.Errorf("phase times not recorded: %+v", ph)
	}
	s.ResetPhaseTimes()
	if got := s.PhaseTimes(); got != (PhaseTimes{}) {
		t.Errorf("reset did not clear timers: %+v", got)
	}
	// Without instrumentation, timers stay zero.
	s2, _ := New(8, DefaultConfig())
	if _, err := s2.ApplyBatch(ups[:50]); err != nil {
		t.Fatal(err)
	}
	if s2.PhaseTimes() != (PhaseTimes{}) {
		t.Error("uninstrumented sampler recorded phases")
	}
	_ = time.Now() // keep time import honest under refactors
}

func TestGroupKindStrings(t *testing.T) {
	want := map[GroupKind]string{
		KindEmpty: "empty", KindDense: "dense", KindOne: "one-element",
		KindSparse: "sparse", KindRegular: "regular",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if GroupKind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
}

func TestGroupElementRatiosAndSavings(t *testing.T) {
	s := runningExample(t, DefaultConfig())
	ratios := s.GroupElementRatios()
	if len(ratios) == 0 {
		t.Fatal("no ratios")
	}
	for j, r := range ratios {
		if r < 0 || r > 1 {
			t.Errorf("ratio[%d] = %v outside [0,1]", j, r)
		}
	}
	sav := s.AdaptiveSavings()
	var totalBS, totalGA int64
	for _, ks := range sav {
		totalBS += ks.BS
		totalGA += ks.GA
	}
	if totalBS <= 0 || totalGA <= 0 {
		t.Error("savings not populated")
	}
	// Adaptive storage never exceeds the all-regular model for dense and
	// one-element groups (they store strictly less).
	if sav[KindDense].GA > sav[KindDense].BS {
		t.Errorf("dense GA %d > BS %d", sav[KindDense].GA, sav[KindDense].BS)
	}
	if sav[KindOne].GA > sav[KindOne].BS {
		t.Errorf("one-element GA %d > BS %d", sav[KindOne].GA, sav[KindOne].BS)
	}
}

func TestOutOfRangeQueries(t *testing.T) {
	s := runningExample(t, DefaultConfig())
	if s.Degree(1000) != 0 {
		t.Error("Degree out of range should be 0")
	}
	if s.HasEdge(1000, 0) {
		t.Error("HasEdge out of range should be false")
	}
}
