package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"

	"github.com/bingo-rw/bingo/internal/obs"
)

// goSnap is the Go runtime's bill so far: heap allocations and CPU seconds.
type goSnap struct {
	mallocs         uint64
	heapInuse       uint64
	gcCPU, totalCPU float64
}

func readGo() goSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	g := goSnap{mallocs: m.Mallocs, heapInuse: m.HeapInuse}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU, g.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return g
}

// goMetrics fills the go.* per-layer metrics for the interval a→b.
func goMetrics(v values, a, b goSnap, steps int64) {
	v["go.allocs_per_step"] = ratio(float64(b.mallocs-a.mallocs), float64(steps))
	v["go.gc_cpu_share"] = 100 * ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	v["go.heap_inuse_mb"] = float64(b.heapInuse) / (1 << 20)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// obsCounters reads every counter and gauge of the process-wide metrics
// registry, keyed name{labels}. It is the only way the benchmark looks
// inside the fabric: from outside, through the plane an operator has.
func obsCounters() map[string]int64 {
	out := map[string]int64{}
	for _, m := range obs.Default.Snapshot() {
		if m.Kind == "histogram" {
			continue
		}
		out[m.Name+"{"+m.Labels+"}"] = m.Value
	}
	return out
}

// sumDelta adds up b−a over the series of one metric family whose labels
// contain every one of the given fragments.
func sumDelta(a, b map[string]int64, family string, labels ...string) float64 {
	var sum int64
next:
	for key, val := range b {
		if !strings.HasPrefix(key, family+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(key, l) {
				continue next
			}
		}
		sum += val - a[key]
	}
	return float64(sum)
}

// fabricMetrics fills the fabric.* traffic metrics for the interval a→b from
// the registry's frame, byte and message counters. Every frame is counted
// once, where it is sent. A workload that runs no fabric reads zeros here,
// which is the check that it really ran none.
func fabricMetrics(v values, a, b map[string]int64, steps, walks, updates float64) {
	tcp := func(family string, kinds ...string) (sum float64) {
		for _, k := range kinds {
			sum += sumDelta(a, b, family, `fabric="tcp"`, `dir="tx"`, `kind="`+k+`"`)
		}
		return sum
	}
	walkKinds := []string{"walker", "walker_batch", "retire", "view_req", "view_rep"}
	v["fabric.tcp_bytes_per_step"] = ratio(tcp("bingo_fabric_bytes_total", walkKinds...), steps)
	v["fabric.tcp_frames_per_walk"] = ratio(tcp("bingo_fabric_frames_total", walkKinds...), walks)
	v["fabric.tcp_bytes_per_update"] = ratio(tcp("bingo_fabric_bytes_total", "updates", "barrier", "ack", "credit"), updates)
	v["fabric.inproc_msgs_per_walk"] = ratio(sumDelta(a, b, "bingo_fabric_msgs_total", `fabric="inproc"`, `kind="walker"`), walks)
}
