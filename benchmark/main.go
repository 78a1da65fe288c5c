// Command benchmark is the repository benchmark BENCHMARK.json names: four
// workloads from the paper's batch rounds to serving over loopback TCP,
// eight end-to-end metrics measured on each, and a traced mode that adds
// per-layer metrics and a layer-by-layer ladder. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outDir is where runs leave their result and trace files, relative to the
// root of the checkout (run.sh changes there). Tests point it elsewhere.
var outDir = "benchmark/out"

// runEnv is recorded in every file the benchmark writes.
type runEnv struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Vertices   int    `json:"graph_vertices"`
	Edges      int64  `json:"graph_edges"`
	TapeEvents int    `json:"tape_events"`
}

// commit is the revision the binary was built from, when it was built
// inside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// tapeNeed is the longest tape any workload takes at this run length, so
// that all four get identical inputs from one seed.
func tapeNeed(z sizing, seconds int) int {
	need := batchTapeNeed(z, seconds)
	for _, spec := range serveSpecs {
		need = max(need, spec.tapeNeed(z, seconds))
	}
	return need
}

// runOne runs a workload once and returns its outcome, the figures behind
// it and the run's environment record.
func runOne(workload string, seed uint64, seconds int, trace bool, z sizing) (outcome, runEnv, error) {
	env := runEnv{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	spec, serving := serveSpecs[workload]
	if !serving && workload != "batch-rounds" {
		return outcome{}, env, fmt.Errorf("unknown workload %q", workload)
	}
	in, err := makeInputs(seed, z, tapeNeed(z, seconds))
	if err != nil {
		return outcome{}, env, err
	}
	env.Vertices, env.Edges, env.TapeEvents = in.vertices, in.edges, len(in.tape)

	var rec *recorder
	if trace {
		rec = newRecorder()
	}
	var res *runResult
	pool, length := in.allStarts, z.longWalk
	if serving {
		res, err = runServing(spec, in, seconds, rec)
		pool, length = spec.walk(in)
	} else {
		res, err = runBatch(in, seconds, rec)
	}
	if err != nil {
		return outcome{}, env, err
	}

	out := outcome{Correct: len(res.problems) == 0 && res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "FAILED CHECK:", p)
	}
	if !trace {
		out.Metrics, err = report(endToEnd, res.e2e)
		return out, env, err
	}
	res.layer["gen.generate_s"], res.layer["graph.tape_build_s"] = in.genS, in.tapeS
	rungs, err := runLadder(in, pool, length, res.layer)
	if err != nil {
		return outcome{}, env, err
	}
	if out.Metrics, err = report(perLayer, res.layer); err != nil {
		return outcome{}, env, err
	}
	for _, r := range rungs {
		fmt.Printf("# ladder %-30s %6d queries %10.1f ns/step %9.2f us/query  x%.2f of the rung below\n",
			r.Name, r.Queries, r.NsPerStep, r.QueryUs, r.OverBelow)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return outcome{}, env, err
	}
	return out, env, writeTrace(filepath.Join(outDir, "trace-"+workload+".json"), env, rec, rungs)
}

// printRun prints every metric by name with its unit, writes the result
// file, and ends standard output with the one-line outcome.
func printRun(out outcome, env runEnv) error {
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-40s %16d\n%-40s %16d\n", "ops_attempted", out.Attempted, "ops_failed", out.Failed)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	file, err := json.MarshalIndent(struct {
		Env     runEnv  `json:"env"`
		Outcome outcome `json:"outcome"`
	}{env, out}, "", "  ")
	if err != nil {
		return err
	}
	kind := "result"
	if env.Trace {
		kind = "layers"
	}
	name := fmt.Sprintf("%s-%s-seed%d.json", kind, env.Workload, env.Seed)
	if err := os.WriteFile(filepath.Join(outDir, name), append(file, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", "", "one of "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 42, "seed of the generated graph, tape and start vertices")
	seconds := flag.Int("seconds", runSeconds, "length of the timed part")
	trace := flag.Int("trace", 0, "1 records spans, runs the layer ladder and prints the per-layer metrics instead")
	repeat := flag.Int("repeat", 0, "run every workload this many times on successive seeds, print the spreads, and from five runs up write the bounds they imply into "+manifestPath)
	compare := flag.Bool("compare", false, "compare two -repeat result files given as arguments against "+manifestPath+"'s bounds")
	flag.Parse()

	// Two threads at most: the reference box has two, and every client count
	// below is chosen for two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *repeat > 0:
		err = repeatRuns(*repeat, *seed, *seconds, names)
	default:
		var out outcome
		var env runEnv
		if out, env, err = runOne(*workload, *seed, *seconds, *trace == 1, fullSizing); err == nil {
			if err = printRun(out, env); err == nil && !out.Correct {
				err = fmt.Errorf("%d of %d operations failed or an output check did", out.Failed, out.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
