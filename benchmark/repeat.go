package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Fixed bounds: set-up gets the widest the contract allows, since a median
// of three set-ups is the least steady figure here; bytes_per_edge is exact
// for a seed, so one percent is already a real change. Every other metric
// gets max(minBound, 2·IQR/median) over the workloads, and one that would
// need more than maxBound belongs among the per-layer metrics instead.
var fixedBounds = map[string]float64{"setup_s": 0.25, "bytes_per_edge": 0.01}

const minBound, maxBound = 0.10, 0.25

// minBoundRuns is how many runs per cell a bound may be derived from.
const minBoundRuns = 5

// quartiles are Python's statistics.quantiles(xs, n=4), the method the
// driver applies to its own runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}

// repeatFile is what -repeat leaves behind and -compare reads.
type repeatFile struct {
	Env  runEnv                          `json:"env"` // of the first run
	Runs map[string]map[string][]float64 `json:"runs"`
}

// repeatRuns runs every workload n times, each run a fresh process on its
// own seed, prints each cell's quartiles and spread, and, given enough runs,
// writes the bounds they imply into BENCHMARK.json.
func repeatRuns(n int, seed uint64, seconds int, names []string) error {
	if n < 2 {
		return fmt.Errorf("-repeat %d: quartiles need at least two runs", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := repeatFile{Runs: map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		for _, w := range names {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(seed+uint64(i), 10), "-seconds", strconv.Itoa(seconds))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i, w, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var out outcome
			if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
				return fmt.Errorf("run %d of %s: last line: %w", i, w, err)
			}
			if file.Runs[w] == nil {
				file.Runs[w] = map[string][]float64{}
			}
			for name, m := range out.Metrics {
				file.Runs[w][name] = append(file.Runs[w][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %-14s seed %d: %d ops, %d failed\n", i+1, n, w, seed+uint64(i), out.Attempted, out.Failed)
		}
	}

	bounds := map[string]float64{}
	fmt.Printf("%-20s %-14s %14s %14s %14s %8s\n", "metric", "workload", "q1", "median", "q3", "spread")
	for _, d := range endToEnd {
		need := minBound
		for _, w := range names {
			xs := file.Runs[w][d.Name]
			q1, q2, q3 := quartiles(xs)
			fmt.Printf("%-20s %-14s %14.6g %14.6g %14.6g %7.2f%%\n", d.Name, w, q1, q2, q3, 100*spread(xs))
			need = max(need, 2*spread(xs))
		}
		if fixed, ok := fixedBounds[d.Name]; ok {
			need = fixed
		} else if need > maxBound {
			fmt.Printf("%-20s needs a bound of %.0f%%: too unsteady to gate, demote it to per-layer\n", d.Name, 100*need)
			need = maxBound
		}
		bounds[d.Name] = math.Round(need*100) / 100
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("repeat-seed%d.json", seed))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if n < minBoundRuns {
		fmt.Printf("%d runs are too few to set bounds from (%d at least): %s left as it is\n", n, minBoundRuns, manifestPath)
		return nil
	}
	// The box's noise comes and goes over minutes, so one sweep can be
	// luckier than the next: a bound only ever widens here. To tighten one,
	// edit the file.
	if old, err := readManifest(manifestPath); err == nil {
		for _, d := range old.EndToEnd {
			bounds[d.Name] = max(bounds[d.Name], d.Bound)
		}
	}
	fmt.Println("wrote the bounds into", manifestPath)
	return newManifest(bounds).write(manifestPath)
}

// compareFiles holds the second -repeat file's medians against the first's:
// a cell fails when it is worse by more than the metric's bound.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two -repeat result files, got %d arguments", len(paths))
	}
	m, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	var files [2]repeatFile
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	failed := 0
	fmt.Printf("%-20s %-14s %14s %14s %9s %7s\n", "metric", "workload", "a median", "b median", "b worse", "bound")
	for _, d := range m.EndToEnd {
		var names []string
		for w := range files[0].Runs {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			a, b := median(files[0].Runs[w][d.Name]), median(files[1].Runs[w][d.Name])
			worse := ratio(b-a, a)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			if worse > d.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-20s %-14s %14.6g %14.6g %8.2f%% %6.0f%% %s\n", d.Name, w, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d cells are worse than their bound allows", failed)
	}
	return nil
}
