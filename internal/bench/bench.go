// Package bench is the experiment harness: one runner per table/figure of
// the paper's evaluation (§6), each printing the same rows/series the paper
// reports, plus the corpus serving scenario.
// cmd/bingobench is the CLI front end; bench_test.go at the module
// root exposes testing.B entry points.
//
// Scaling: datasets are generated at Options.Scale of the paper's sizes
// (Table 2), additionally capped at Options.MaxEdges edges, and BATCHSIZE
// scales identically (the paper uses 100 K at full size). Absolute numbers
// therefore differ from the paper's A100 cluster; the *shape* of each
// result — who wins, by what factor, where crossovers fall — is the
// reproduction target (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/bingo-rw/bingo/internal/baseline"
	"github.com/bingo-rw/bingo/internal/core"
	"github.com/bingo-rw/bingo/internal/gen"
	"github.com/bingo-rw/bingo/internal/graph"
	"github.com/bingo-rw/bingo/internal/walk"
	"github.com/bingo-rw/bingo/internal/xrand"
)

// Options configure a harness run.
type Options struct {
	// Scale multiplies the paper's dataset sizes (default 0.01).
	Scale float64
	// MaxEdges caps any generated dataset (default 2,000,000), further
	// reducing the effective scale of the largest graphs.
	MaxEdges int64
	// BatchSize is the per-round update count; 0 derives the paper's
	// 100 K scaled by the effective scale (minimum 1,000).
	BatchSize int
	// Rounds is the number of update+walk rounds (paper: 10).
	Rounds int
	// WalkLength is the walk length (paper: 80).
	WalkLength int
	// MaxWalkers caps walkers per round (paper uses one per vertex; the
	// cap keeps single-machine runs tractable). 0 means 5,000.
	MaxWalkers int
	// Workers bounds engine/walk parallelism (0 = 1).
	Workers int
	// Seed drives all generators.
	Seed uint64
	// Datasets filters by abbreviation (nil = all five).
	Datasets []string
	// Systems filters Table 3 systems (nil = all four).
	Systems []string
	// Apps filters Table 3 applications (nil = all three).
	Apps []string
	// Out receives the report (required).
	Out io.Writer
	// Transports filters the corpus scenario's transport dimension:
	// "inproc" (in-process fabric) and/or "tcp" (loopback tcpgob fabric).
	// Nil means both.
	Transports []string
	// Verbose adds progress lines.
	Verbose bool

	// Generated graphs and workloads are deterministic in (Seed, Scale),
	// so runs cache them across experiments and grid cells.
	graphCache map[string]*graph.CSR
	wlCache    map[string]*gen.Workload
}

// DefaultOptions returns the standard scaled-down configuration.
func DefaultOptions(out io.Writer) Options {
	return Options{
		Scale:      0.01,
		MaxEdges:   2_000_000,
		Rounds:     10,
		WalkLength: 80,
		MaxWalkers: 5000,
		Seed:       42,
		Out:        out,
	}
}

func (o *Options) normalize() error {
	if o.Out == nil {
		return fmt.Errorf("bench: Options.Out is required")
	}
	if o.Scale <= 0 {
		o.Scale = 0.01
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = 2_000_000
	}
	if o.Rounds <= 0 {
		o.Rounds = 10
	}
	if o.WalkLength <= 0 {
		o.WalkLength = 80
	}
	if o.MaxWalkers <= 0 {
		o.MaxWalkers = 5000
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if len(o.Datasets) == 0 {
		for _, d := range gen.Datasets {
			o.Datasets = append(o.Datasets, d.Abbr)
		}
	}
	if len(o.Systems) == 0 {
		o.Systems = []string{"Bingo", "KnightKing", "RebuildITS", "FlowWalker"}
	}
	if len(o.Apps) == 0 {
		o.Apps = []string{"DeepWalk", "node2vec", "PPR"}
	}
	if len(o.Transports) == 0 {
		o.Transports = []string{"inproc", "tcp"}
	}
	for _, tr := range o.Transports {
		if tr != "inproc" && tr != "tcp" {
			return fmt.Errorf("bench: unknown transport %q (want inproc or tcp)", tr)
		}
	}
	if o.graphCache == nil {
		o.graphCache = map[string]*graph.CSR{}
	}
	if o.wlCache == nil {
		o.wlCache = map[string]*gen.Workload{}
	}
	return nil
}

// effScale returns the dataset's effective scale under the edge cap.
func (o *Options) effScale(d gen.Dataset) float64 {
	s := o.Scale
	if int64(float64(d.PaperE)*s) > o.MaxEdges {
		s = float64(o.MaxEdges) / float64(d.PaperE)
	}
	return s
}

// batchSize returns the effective per-round batch size for a dataset.
func (o *Options) batchSize(d gen.Dataset) int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	bs := int(100_000 * o.effScale(d))
	if bs < 1000 {
		bs = 1000
	}
	return bs
}

// dataset generates (or recalls) a dataset at the effective scale with
// default biases.
func (o *Options) dataset(abbr string) (gen.Dataset, *graph.CSR, error) {
	d, err := gen.DatasetByAbbr(abbr)
	if err != nil {
		return d, nil, err
	}
	if g, ok := o.graphCache[abbr]; ok {
		return d, g, nil
	}
	o.logf("generating %s at scale %.4f", abbr, o.effScale(d))
	g, err := d.Generate(o.effScale(d), o.Seed)
	if err == nil {
		o.graphCache[abbr] = g
	}
	return d, g, err
}

// workload builds (or recalls) the §6.1 update workload for a dataset.
// Sharing is safe: batch application reorders updates only stably per
// source, which leaves every batch's semantics unchanged.
func (o *Options) workload(abbr string, g *graph.CSR, kind gen.UpdateKind, batchSize int) (*gen.Workload, error) {
	key := fmt.Sprintf("%s/%v/%d/%d", abbr, kind, batchSize, o.Rounds)
	if w, ok := o.wlCache[key]; ok {
		return w, nil
	}
	w, err := gen.BuildWorkload(g, kind, batchSize, o.Rounds, o.Seed)
	if err == nil {
		o.wlCache[key] = w
	}
	return w, err
}

// walkers returns the capped start set for a graph.
func (o *Options) walkers(numVertices int) []graph.VertexID {
	n := numVertices
	if n > o.MaxWalkers {
		n = o.MaxWalkers
	}
	starts := make([]graph.VertexID, n)
	stride := numVertices / n
	if stride == 0 {
		stride = 1
	}
	for i := range starts {
		starts[i] = graph.VertexID(i * stride % numVertices)
	}
	return starts
}

// degreeWeightedStarts draws n start vertices with probability proportional
// to out-degree — the stationary-ish vertex mix long walks actually sample
// from, used by experiments that isolate per-sample cost.
func degreeWeightedStarts(g *graph.CSR, n int, seed uint64) []graph.VertexID {
	r := xrand.New(seed ^ 0xdeb)
	total := uint64(g.NumEdges())
	if total == 0 {
		return nil
	}
	starts := make([]graph.VertexID, n)
	for i := range starts {
		// Pick the vertex owning the x-th edge endpoint via binary
		// search on the CSR offsets.
		x := int64(r.Uint64n(total))
		lo, hi := 0, g.NumVertices()
		for lo < hi {
			mid := (lo + hi) / 2
			if g.Offsets[mid+1] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		starts[i] = graph.VertexID(lo)
	}
	return starts
}

func (o *Options) walkConfig(numVertices int) walk.Config {
	return walk.Config{
		Length:  o.WalkLength,
		Starts:  o.walkers(numVertices),
		Workers: o.Workers,
		Seed:    o.Seed ^ 0xa11ce,
	}
}

// bingoConfig returns the default Bingo configuration for the harness.
func (o *Options) bingoConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = o.Workers
	return cfg
}

// newEngine constructs a system under test by name.
func (o *Options) newEngine(system string, g *graph.CSR) (walk.Dynamic, error) {
	switch system {
	case "Bingo":
		return core.NewFromCSR(g, o.bingoConfig())
	case "KnightKing":
		return baseline.NewKnightKing(g), nil
	case "RebuildITS":
		return baseline.NewRebuildITS(g), nil
	case "FlowWalker":
		return baseline.NewFlowWalker(g), nil
	default:
		return nil, fmt.Errorf("bench: unknown system %q", system)
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(o.Out, "# "+format+"\n", args...)
	}
}

// timed runs fn and returns its wall-clock duration.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// gb formats bytes as gigabytes with paper-style precision.
func gb(b int64) string { return fmt.Sprintf("%.3f", float64(b)/1e9) }

// mb formats bytes as megabytes.
func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e6) }

// secs formats a duration in seconds with paper-style precision.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// table is a tiny aligned-output helper.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer) *table {
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// runner is an experiment entry point.
type runner struct {
	name, desc string
	fn         func(*Options) error
}

var registry = []runner{
	{"table1", "complexity microbenchmark: Bingo vs alias/ITS/rejection per-operation cost", runTable1},
	{"table2", "generated dataset statistics vs the paper's Table 2", runTable2},
	{"table3", "Bingo vs SOTA: runtime and memory across apps, update kinds, datasets", runTable3},
	{"table4", "group-type conversion ratios on LJ under mixed updates", runTable4},
	{"fig9", "group element ratio per bit position for three bias distributions", runFig9},
	{"fig11", "adaptive group representation memory impact (BS vs GA)", runFig11},
	{"fig12", "streaming vs batched update throughput", runFig12},
	{"fig13", "time breakdown: BS vs GA (reorder, insert/delete, rebuild, sampling)", runFig13},
	{"fig14", "integer vs floating-point bias time and memory", runFig14},
	{"fig15a", "batch size sweep: Bingo vs RebuildITS", runFig15a},
	{"fig15b", "walk length sweep: Bingo vs RebuildITS", runFig15b},
	{"fig15c", "bias distribution impact on time and memory", runFig15c},
	{"fig16", "piecewise breakdown: updates and sampling vs FlowWalker", runFig16},
	{"ablation", "design ablations: radix base, α/β thresholds, lookup index", runAblation},
	{"corpus", "standing walk corpus: resample amplification, refresh lag, and serving split under hub-churn, inproc/tcp at 4 shards", runCorpus},
}

// Experiments lists available experiment names with descriptions.
func Experiments() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = fmt.Sprintf("%-8s %s", r.name, r.desc)
	}
	return out
}

// Run executes the named experiments: a single name, a comma-separated
// list run in the given order, or "all" for every registered runner.
func Run(name string, o Options) error {
	if err := o.normalize(); err != nil {
		return err
	}
	if name == "all" {
		for _, r := range registry {
			fmt.Fprintf(o.Out, "\n==== %s: %s ====\n", r.name, r.desc)
			if err := r.fn(&o); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
		return nil
	}
	var run []runner
	for _, want := range strings.Split(name, ",") {
		want = strings.TrimSpace(want)
		found := false
		for _, r := range registry {
			if r.name == want {
				run = append(run, r)
				found = true
				break
			}
		}
		if !found {
			names := make([]string, len(registry))
			for i, r := range registry {
				names[i] = r.name
			}
			sort.Strings(names)
			return fmt.Errorf("bench: unknown experiment %q (have %v)", want, names)
		}
	}
	for _, r := range run {
		fmt.Fprintf(o.Out, "==== %s: %s ====\n", r.name, r.desc)
		if err := r.fn(&o); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return nil
}
