package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef is one row of BENCHMARK.json's per_layer list; boundedDef one
// of end_to_end, where Bound is the share of the parent's median by which
// the metric may worsen.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// The tables below are the single source of BENCHMARK.json: `-repeat`
// rewrites the file from them (with measured bounds) and a test fails when
// file and tables disagree.
var workloads = []workloadDef{
	{"batch-rounds", "paper §6.1 rounds through bingo.Engine: only core updates, sampling and the bulk walk kernel run, so serving-tier changes must leave it flat"},
	{"live-read", "long walks over the whole graph through LiveService: per-step cost dominates, coordinator and fabric are bypassed"},
	{"sharded-mixed", "short hub-started walks through 2 in-process shards beside a 20k upd/s feed: coordinator, hand-off and hub caches dominate, writes invalidate reads"},
	{"tcp-mixed", "sharded-mixed's exact traffic over loopback tcpgob: the only workload where frame encode/decode and syscalls run"},
}

// Every end-to-end metric is measured on every workload (README.md says how
// on each), so none is ever zero. Their bounds live in BENCHMARK.json, where
// `-repeat` writes them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"steps_per_s", "1/s", "higher"},
	{"updates_per_s", "1/s", "higher"},
	{"query_p50_us", "us", "lower"},
	{"query_p99_us", "us", "lower"},
	{"visibility_p50_ms", "ms", "lower"},
	{"bytes_per_edge", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	// Set-up, by the layer that does it.
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "graph.tape_build_s", Unit: "s", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "walk.bootstrap_s", Unit: "s", Better: "lower"},
	{Name: "fabric.tcp_bootstrap_s", Unit: "s", Better: "lower"},
	// core, on the ladder's own sampler.
	{Name: "core.sample_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "core.apply_batch_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.stream_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.conversions_per_kupdate", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "core.group_bytes_share", Unit: "%", Better: "lower"},
	// concurrent.
	{Name: "concurrent.walk_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "concurrent.over_core", Unit: "x", Better: "lower"},
	{Name: "concurrent.apply_batch_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "concurrent.retries_per_kstep", Unit: "count", Better: "lower"},
	// walk: kernel, live service, sharded runtime.
	{Name: "walk.kernel_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "walk.kernel_over_concurrent", Unit: "x", Better: "lower"},
	{Name: "walk.kernel_scaling_2w", Unit: "x", Better: "higher"},
	{Name: "walk.live_query_us", Unit: "us", Better: "lower"},
	{Name: "walk.live_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "walk.live_over_kernel", Unit: "x", Better: "lower"},
	{Name: "walk.sharded1_query_us", Unit: "us", Better: "lower"},
	{Name: "walk.sharded1_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "walk.sharded1_over_live", Unit: "x", Better: "lower"},
	{Name: "walk.sharded2_query_us", Unit: "us", Better: "lower"},
	{Name: "walk.sharded2_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "walk.sharded2_over_sharded1", Unit: "x", Better: "lower"},
	{Name: "walk.transfers_per_step", Unit: "count", Better: "lower"},
	{Name: "walk.hubcache_hit_rate", Unit: "%", Better: "higher"},
	{Name: "walk.remote_view_hits_per_step", Unit: "count", Better: "higher"},
	{Name: "walk.hubcache_stale_per_kstep", Unit: "count", Better: "lower"},
	{Name: "walk.feed_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "walk.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "walk.credit_stalls", Unit: "ms", Better: "lower"},
	{Name: "walk.max_outstanding", Unit: "count", Better: "lower"},
	// fabric.
	{Name: "fabric.tcp2_query_us", Unit: "us", Better: "lower"},
	{Name: "fabric.tcp2_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "fabric.tcp_over_inproc", Unit: "x", Better: "lower"},
	{Name: "fabric.tcp_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "fabric.tcp_frames_per_walk", Unit: "count", Better: "lower"},
	{Name: "fabric.tcp_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "fabric.inproc_msgs_per_walk", Unit: "count", Better: "lower"},
	// The Go runtime under the timed part.
	{Name: "go.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_share", Unit: "%", Better: "lower"},
	{Name: "go.heap_inuse_mb", Unit: "MB", Better: "lower"},
	// End-to-end figures that exist on some workloads only, or whose tail
	// the run's sample cannot support: reported, not gated.
	{Name: "bingo.round_s", Unit: "s", Better: "lower"},
	{Name: "bingo.stream_updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bingo.visibility_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "bingo.visibility_tail_pct", Unit: "%", Better: "higher"},
	{Name: "bench.feed_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.feed_backlog_end", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []boundedDef  `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const manifestPath = "BENCHMARK.json"

// newManifest is BENCHMARK.json for the tables above and the given bounds.
func newManifest(bounds map[string]float64) manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		PerLayer:   perLayer,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundedDef{d, bounds[d.Name]})
	}
	return m
}

// runSeconds is the timed part's length in every run the driver makes.
const runSeconds = 10

// rows lays a list out one compact JSON object per line.
func rows[T any](xs []T) string {
	lines := make([]string, len(xs))
	for i, x := range xs {
		j, err := json.Marshal(x)
		if err != nil {
			panic(err) // plain structs of strings and numbers
		}
		lines[i] = "    " + string(j)
	}
	return "[\n" + strings.Join(lines, ",\n") + "\n  ]"
}

func (m manifest) write(path string) error {
	command, _ := json.Marshal(m.Command)
	paths, _ := json.Marshal(m.Paths)
	text := fmt.Sprintf("{\n  \"command\": %s,\n  \"paths\": %s,\n  \"run_seconds\": %d,\n"+
		"  \"workloads\": %s,\n  \"end_to_end\": %s,\n  \"per_layer\": %s\n}\n",
		command, paths, m.RunSeconds, rows(m.Workloads), rows(m.EndToEnd), rows(m.PerLayer))
	return os.WriteFile(path, []byte(text), 0o644)
}

func readManifest(path string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(raw, &m)
}

// measured is one metric as a run reports it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// values collects a run's figures by metric name.
type values map[string]float64

// report turns figures into the outcome's metric map, insisting that the
// run produced exactly the metrics the table names.
func report(defs []metricDef, v values) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("run produced no %s", d.Name)
		}
		out[d.Name] = measured{Value: x, Unit: d.Unit}
	}
	if len(v) != len(defs) {
		var extra []string
		for name := range v {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("run produced metrics outside the table: %v", extra)
	}
	return out, nil
}
