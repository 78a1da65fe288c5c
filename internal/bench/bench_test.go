package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyOptions runs every experiment at smoke-test scale: two small
// datasets, tiny batches, few walkers.
func tinyOptions(buf *bytes.Buffer) Options {
	o := DefaultOptions(buf)
	o.Scale = 0.001
	o.MaxEdges = 30_000
	o.BatchSize = 500
	o.Rounds = 2
	o.WalkLength = 10
	o.MaxWalkers = 200
	o.Datasets = []string{"AM", "GO"}
	return o
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", tinyOptions(&buf)); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunRequiresOut(t *testing.T) {
	o := Options{}
	if err := Run("table2", o); err == nil {
		t.Error("nil Out accepted")
	}
}

func TestExperimentsList(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(registry) {
		t.Fatalf("%d experiments listed, registry has %d", len(exps), len(registry))
	}
	joined := strings.Join(exps, "\n")
	for _, want := range []string{"table1", "table3", "fig9", "fig16", "ablation"} {
		if !strings.Contains(joined, want) {
			t.Errorf("experiment %s missing from list", want)
		}
	}
}

// TestEveryExperimentRuns smoke-tests each runner end to end and checks
// the output contains the expected headers.
func TestEveryExperimentRuns(t *testing.T) {
	wantHeader := map[string]string{
		"table1":   "ns/sample",
		"table2":   "avgDeg",
		"table3":   "avg speedup vs Bingo",
		"table4":   "from \\ to",
		"fig9":     "Power-law",
		"fig11":    "hdr regular",
		"fig12":    "updates/s batched",
		"fig13":    "reorder(s)",
		"fig14":    "float time(s)",
		"fig15a":   "RebuildITS time(s)",
		"fig15b":   "walk length",
		"fig15c":   "dense-group %",
		"fig16":    "FlowWalker_R(s)",
		"ablation": "groups/vertex",
		"corpus":   "amplification",
	}
	for _, r := range registry {
		r := r
		t.Run(r.name, func(t *testing.T) {
			var buf bytes.Buffer
			o := tinyOptions(&buf)
			if r.name == "table3" {
				// Keep the grid tiny: one app, two systems.
				o.Apps = []string{"DeepWalk"}
				o.Systems = []string{"Bingo", "FlowWalker"}
				o.Datasets = []string{"AM"}
			}
			if err := Run(r.name, o); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if want := wantHeader[r.name]; want != "" && !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
			if len(out) < 50 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func TestEffScaleCapsLargeDatasets(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Scale = 1.0
	o.MaxEdges = 10_000
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	_, g, err := o.dataset("TW")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() > 10_000 {
		t.Errorf("edge cap ignored: %d edges", g.NumEdges())
	}
}

func TestWalkersCapAndCoverage(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	starts := o.walkers(100000)
	if len(starts) != o.MaxWalkers {
		t.Errorf("walkers %d, want %d", len(starts), o.MaxWalkers)
	}
	for _, s := range starts {
		if int(s) >= 100000 {
			t.Fatalf("start %d out of range", s)
		}
	}
	small := o.walkers(50)
	if len(small) != 50 {
		t.Errorf("small-graph walkers %d, want 50", len(small))
	}
}
