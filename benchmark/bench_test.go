package main

import (
	"errors"
	"math"
	"regexp"
	"runtime"
	"testing"
	"time"

	"github.com/bingo-rw/bingo"
)

// fakeClock advances only when the feeder sleeps or a send "takes" time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func testTape(n int) *tape[bingo.Update] { return &tape[bingo.Update]{ups: make([]bingo.Update, n)} }

func TestFeederKeepsAnAbsoluteSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	sch := schedule{start: start, interval: 10 * time.Millisecond}
	// Batch 2 stalls for 35 ms; every other send takes 1 ms.
	sent := 0
	send := func(b []bingo.Update) error {
		cost := time.Millisecond
		if sent == 2 {
			cost = 35 * time.Millisecond
		}
		sent++
		clk.Sleep(cost)
		return nil
	}
	run, err := feed(clk, sch, start.Add(100*time.Millisecond), 0, 4, testTape(1000), send)
	if err != nil {
		t.Fatal(err)
	}
	if run.batches != 10 || run.events != 40 || run.backlog != 0 {
		t.Fatalf("batches %d events %d backlog %d, want 10, 40, 0: a stall must not stretch the timetable", run.batches, run.events, run.backlog)
	}
	// Batches 0-2 go out on time. Batch 2 ends at 20+35 = 55 ms, so batch 3
	// (due 30) starts 25 ms late, 4 (due 40) at 56: 16 late, 5 (due 50) at
	// 57: 7 late, and batch 6 (due 60) is on time again.
	wantLag := []float64{0, 0, 0, 25, 16, 7, 0, 0, 0, 0}
	for i, want := range wantLag {
		if math.Abs(run.lag[i]-want) > 1e-9 {
			t.Errorf("batch %d started %.3f ms after it was due, want %.3f", i, run.lag[i], want)
		}
	}
	// Latency counts from the due time, so the stall shows on the batches
	// that queued behind it and not only on the one that stalled.
	if got := run.visibility[3]; math.Abs(got-26) > 1e-9 {
		t.Errorf("batch 3 visible %.3f ms after it was due, want 26", got)
	}
}

func TestFeederRefusesToFallBehindOrRunDry(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	sch := schedule{start: start, interval: 10 * time.Millisecond}
	slow := func([]bingo.Update) error { clk.Sleep(600 * time.Millisecond); return nil }
	if _, err := feed(clk, sch, start.Add(10*time.Second), 0, 1, testTape(1000), slow); err == nil {
		t.Error("a feeder more than a second behind its schedule must invalidate the run")
	}

	clk = &fakeClock{now: start}
	fast := func([]bingo.Update) error { return nil }
	_, err := feed(clk, sch, start.Add(time.Second), 0, 4, testTape(10), fast)
	if !errors.Is(err, errTapeExhausted) {
		t.Errorf("running off the tape gave %v, want errTapeExhausted", err)
	}
}

func TestFeederReportsBacklogAtTheEnd(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	sch := schedule{start: start, interval: 10 * time.Millisecond}
	// Each send takes 30 ms: by the 100 ms deadline 10 batches fell due.
	send := func([]bingo.Update) error { clk.Sleep(30 * time.Millisecond); return nil }
	run, err := feed(clk, sch, start.Add(100*time.Millisecond), 0, 1, testTape(100), send)
	if err != nil {
		t.Fatal(err)
	}
	if run.batches+run.backlog != 10 || run.backlog == 0 {
		t.Errorf("sent %d, backlog %d: want them to add up to the 10 batches due", run.batches, run.backlog)
	}
}

func TestClosedLoopFeedIsDueWhenTaken(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	send := func([]bingo.Update) error { clk.Sleep(2 * time.Millisecond); return nil }
	run, err := feed(clk, schedule{}, time.Time{}, 5, 3, testTape(15), send)
	if err != nil {
		t.Fatal(err)
	}
	if run.batches != 5 || run.backlog != 0 {
		t.Fatalf("batches %d backlog %d, want 5 and 0", run.batches, run.backlog)
	}
	for i, v := range run.visibility {
		if math.Abs(v-2) > 1e-9 || run.lag[i] != 0 {
			t.Errorf("batch %d: visibility %.3f ms lag %.3f ms, want 2 and 0", i, v, run.lag[i])
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {782, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.5}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(999, 0.99, tailSupport) || !supports(1000, 0.99, tailSupport) {
		t.Error("p99 is supported from 1000 samples on, where ten lie beyond it")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "phase", ID: 1, Start: 0, End: 100},
		{Name: "query", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "query", ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps span 2: a second client
		{Name: "sync", ID: 4, Parent: 1, Start: 90, End: 120},   // runs past its parent: clipped
		{Name: "inner", ID: 5, Parent: 3, Start: 25, End: 35},   // a grandchild counts against span 3 only
		{Name: "query", ID: 6, Parent: 1, Start: 22, End: 28},   // wholly inside the others
		{Name: "other", ID: 7, Start: 200, End: 260},            // childless
		{Name: "query", ID: 8, Parent: 7, Start: 150, End: 190}, // before its parent: covers nothing
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 6, 7: 60} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	totals := totalsByName(spans)
	if q := totals["query"]; q.Count != 4 || q.TotalNs != 20+30+6+40 || q.SelfNs != 20+20+6+40 {
		t.Errorf("query totals %+v", q)
	}
}

func TestRecorderMergesLanesUnderTheirPhase(t *testing.T) {
	rec := newRecorder()
	phase, end := rec.phase("steady")
	a, b := rec.lane(), rec.lane()
	now := time.Now()
	a.add("query", phase, 1, now, now.Add(time.Millisecond))
	b.add("feed", phase, 2, now, now.Add(2*time.Millisecond))
	end()
	spans := rec.merged()
	if len(spans) != 3 || spans[1].Parent != phase || spans[2].Parent != phase || spans[1].ID == spans[2].ID {
		t.Fatalf("merged spans %+v", spans)
	}
	// An untraced run hands out nil recorders and lanes; they must be inert.
	var none *recorder
	_, end = none.phase("steady")
	end()
	none.lane().add("query", 0, 0, now, now)
	none.snapshot("x", nil)
}

func TestQuartilesArePythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}); got != 1 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestManifestMatchesTheProgram holds BENCHMARK.json to the program's own
// tables and to the limits the driver refuses a file for.
func TestManifestMatchesTheProgram(t *testing.T) {
	m, err := readManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := newManifest(nil)
	if len(m.Workloads) != len(want.Workloads) || len(m.EndToEnd) != len(want.EndToEnd) || len(m.PerLayer) != len(want.PerLayer) {
		t.Fatalf("file lists %d workloads, %d end-to-end and %d per-layer metrics; the program %d, %d and %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(want.Workloads), len(want.EndToEnd), len(want.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDef := func(got, want metricDef) {
		if got != want {
			t.Errorf("file has %+v, the program %+v", got, want)
		}
		if !name.MatchString(got.Name) || !unit.MatchString(got.Unit) || seen[got.Name] {
			t.Errorf("%+v: name or unit outside the contract, or name used twice", got)
		}
		if got.Better != "lower" && got.Better != "higher" {
			t.Errorf("%s: better is %q", got.Name, got.Better)
		}
		seen[got.Name] = true
	}
	for i, w := range m.Workloads {
		if w != want.Workloads[i] || !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %+v does not match the program's %+v or the contract", w, want.Workloads[i])
		}
		seen[w.Name] = true
	}
	for i, d := range m.EndToEnd {
		checkDef(d.metricDef, want.EndToEnd[i].metricDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range m.PerLayer {
		checkDef(d, want.PerLayer[i])
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	if m.RunSeconds != runSeconds || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", m.RunSeconds, m.Paths)
	}
	// 4 + 22 runs per workload, each within its budget, must fit 3420 s.
	if runs := 4 + 22*len(m.Workloads); runs*35 > 3420 {
		t.Errorf("%d runs of about 35 s do not fit the driver's cap", runs)
	}
}

// TestSmoke runs every workload, untraced and traced, on a graph of ten
// thousand vertices with one-second timed parts and all output checks on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs for about fifteen seconds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	outDir = t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out, env, err := runOne(w.Name, 7, 1, trace, smokeSizing)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w.Name, trace, out.Correct, out.Failed, out.Attempted)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(out.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(out.Metrics), want)
			}
			for name, m := range out.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, m.Value)
				}
			}
			if env.Vertices == 0 || env.TapeEvents == 0 || env.GOMAXPROCS != 2 {
				t.Errorf("%s: environment record %+v", w.Name, env)
			}
			// What must be zero where the layer does not run.
			if trace && w.Name != "tcp-mixed" {
				for _, name := range []string{"fabric.tcp_bytes_per_step", "fabric.tcp_frames_per_walk", "fabric.tcp_bytes_per_update"} {
					if out.Metrics[name].Value != 0 {
						t.Errorf("%s: %s = %v on a workload without TCP", w.Name, name, out.Metrics[name].Value)
					}
				}
			}
			if trace && !serveSpecs[w.Name].mixed && out.Metrics["walk.transfers_per_step"].Value != 0 {
				t.Errorf("%s: walkers were transferred between shards on an unsharded workload", w.Name)
			}
		}
	}
}

func TestRefusesMoreClientsThanThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in := &inputs{sz: smokeSizing}
	if _, err := runServing(serveSpecs["live-read"], in, 1, nil); err == nil {
		t.Error("two clients on one thread must be refused")
	}
}
