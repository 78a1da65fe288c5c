package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// KV is one flattened metric reading inside a Sample. Key is the full
// metric identity (family name plus rendered labels when present) so a
// receiver can re-expose it with an extra label merged in.
type KV struct {
	Key string
	Val int64
}

// Sample is a wire-friendly flattening of a registry: counters and gauges
// by value, histograms as <name>_count and <name>_sum_ns pairs. Shard
// daemons attach one to every barrier ack (fabric.Ack.Obs), which is how
// the write-coordinator's /metrics becomes fleet-wide without a second
// wire protocol.
type Sample struct {
	Counters []KV
}

// Sample flattens the registry's current state.
func (r *Registry) Sample() Sample {
	r.mu.Lock()
	list := append([]*metric(nil), r.list...)
	r.mu.Unlock()
	s := Sample{Counters: make([]KV, 0, len(list))}
	for _, m := range list {
		switch {
		case m.c != nil:
			s.Counters = append(s.Counters, KV{Key: m.key(), Val: m.c.Load()})
		case m.g != nil:
			s.Counters = append(s.Counters, KV{Key: m.key(), Val: m.g.Load()})
		case m.h != nil:
			s.Counters = append(s.Counters,
				KV{Key: withLabels(m.name+"_count", m.labels), Val: m.h.Count()},
				KV{Key: withLabels(m.name+"_sum_ns", m.labels), Val: m.h.Sum()})
		}
	}
	return s
}

// withLabels renders name{labels} (or bare name for an empty label set).
func withLabels(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// mergeLabel injects one extra label into a sample key: `n{a="b"}` plus
// shard=3 becomes `n{a="b",shard="3"}`; a bare name grows a label set.
func mergeLabel(key, label, value string) string {
	ins := label + `="` + value + `"`
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:len(key)-1] + "," + ins + "}"
	}
	return key + "{" + ins + "}"
}

// WriteSample re-exposes a remote sample in Prometheus text format with
// an extra label merged into every series — the coordinator writes each
// shard's latest ack sample with shard="<i>".
func WriteSample(w io.Writer, s Sample, label, value string) {
	for _, kv := range s.Counters {
		fmt.Fprintf(w, "%s %d\n", mergeLabel(kv.Key, label, value), kv.Val)
	}
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

// WritePrometheus renders the registry in the Prometheus text format:
// counters and gauges as bare series, histograms as cumulative _bucket
// series with `le` bounds in seconds plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	snaps := r.Snapshot()
	// TYPE lines once per family, in first-appearance order.
	typed := map[string]bool{}
	r.mu.Lock()
	list := append([]*metric(nil), r.list...)
	r.mu.Unlock()
	byKey := map[string]*metric{}
	for _, m := range list {
		byKey[withLabels(m.name, m.labels)] = m
	}
	for _, s := range snaps {
		m := byKey[withLabels(s.Name, s.Labels)]
		if m == nil {
			continue
		}
		if !typed[s.Name] {
			typed[s.Name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind)
		}
		switch s.Kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(w, "%s %d\n", withLabels(s.Name, s.Labels), s.Value)
		case kindHist:
			writePromHistogram(w, s.Name, s.Labels, m.h)
		}
	}
}

// writePromHistogram renders one histogram's cumulative buckets. Bounds
// are emitted in seconds (Prometheus convention for durations); only
// buckets at or below the highest occupied one are listed, plus +Inf.
func writePromHistogram(w io.Writer, name, labels string, h *Histogram) {
	b := h.Buckets()
	hi := 0
	for i, c := range b {
		if c > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += b[i]
		le := fmt.Sprintf(`le="%g"`, float64(BucketUpper(i))/1e9)
		l := le
		if labels != "" {
			l = labels + "," + le
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, l, cum)
	}
	inf := `le="+Inf"`
	if labels != "" {
		inf = labels + "," + inf
	}
	total := h.Count()
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, inf, total)
	fmt.Fprintf(w, "%s %g\n", withLabels(name+"_sum", labels), float64(h.Sum())/1e9)
	fmt.Fprintf(w, "%s %d\n", withLabels(name+"_count", labels), total)
}

// ---------------------------------------------------------------------------
// Exporters: extra /metrics content beyond the default registry.

// exporters are named callbacks appended to the /metrics output — the
// write-coordinator registers one that re-exposes its shards' latest ack
// samples with shard labels. Keys are caller-chosen and must be unique
// per live session (sessions unregister on close).
var (
	expMu     sync.Mutex
	exporters = map[string]func(io.Writer){}
)

// RegisterExporter installs a /metrics appender under key, replacing any
// previous holder of the key.
func RegisterExporter(key string, fn func(io.Writer)) {
	expMu.Lock()
	defer expMu.Unlock()
	exporters[key] = fn
}

// UnregisterExporter removes a /metrics appender.
func UnregisterExporter(key string) {
	expMu.Lock()
	defer expMu.Unlock()
	delete(exporters, key)
}

// writeExporters appends every registered exporter's output in key order.
func writeExporters(w io.Writer) {
	expMu.Lock()
	keys := make([]string, 0, len(exporters))
	for k := range exporters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fns := make([]func(io.Writer), 0, len(keys))
	for _, k := range keys {
		fns = append(fns, exporters[k])
	}
	expMu.Unlock()
	for _, fn := range fns {
		fn(w)
	}
}
