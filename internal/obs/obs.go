// Package obs is the fleet observability core: a dependency-free metrics
// registry (atomic counters and gauges, log-bucketed latency histograms),
// a fixed-capacity structured event journal, and an HTTP introspection
// plane (/metrics, /statusz, /eventz + pprof).
//
// Design constraints, in order:
//
//  1. Hot-path instrumentation must be nearly free. A Counter.Add is one
//     atomic add behind one atomic enabled-check load; a Histogram.Observe
//     is a bits.Len64 and two atomic adds. Nothing on the record path
//     allocates, takes a lock, or formats a string. Handles are nil-safe
//     (a nil *Counter no-ops), so call sites never branch on "is
//     observability configured".
//  2. Metric handles are resolved once, at component construction, through
//     the registry (which does lock — that cost is paid per session, not
//     per event). The process-wide kill switch SetEnabled(false) turns
//     every record into a single atomic load + branch, which is what the
//     kernel overhead budget test pins.
//  3. The registry is serializable: Sample() flattens every counter,
//     gauge, and histogram (count + sum) into a flat key/value list so
//     shard daemons can ship their tallies to the coordinator on barrier
//     acks, making the coordinator's /metrics fleet-wide.
//
// The package has no dependencies beyond the standard library and is
// imported by the fabric, so it must never import anything else from
// this module.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the process-wide record switch. Metrics still exist when
// disabled — handles stay valid, the registry keeps its names — but every
// record call returns after one atomic load. The bench's metrics-on/off
// delta flips this.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips the process-wide record switch.
func SetEnabled(on bool) { enabled.Store(on) }

// On reports whether recording is enabled. Hot paths that must pay for a
// timestamp only when someone is listening gate their time.Now on it.
func On() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil receiver no-ops.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically set level. The zero value is ready to use; a nil
// receiver no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge's current level.
func (g *Gauge) Set(n int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Max raises the gauge to n if n exceeds the current level.
func (g *Gauge) Max(n int64) {
	if g == nil || !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the gauge's current level (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metric kind tags for snapshots and exposition.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// metric is one registered instrument: exactly one of c/g/h is non-nil.
type metric struct {
	name   string // metric family name (prometheus-safe)
	labels string // rendered label set `k="v",k2="v2"` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key is the registry identity: family name plus rendered labels.
func (m *metric) key() string {
	if m.labels == "" {
		return m.name
	}
	return m.name + "{" + m.labels + "}"
}

// Registry holds an ordered set of named metrics. Handle resolution
// (Counter/Gauge/Histogram) is idempotent by name+labels: asking twice
// returns the same handle, so independent components can share a family
// without coordination. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	list  []*metric
	byKey map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

// renderLabels turns a flat k,v,k,v list into `k="v",k2="v2"`. Labels are
// rendered once at handle resolution — never on the record path.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	s := ""
	for i := 0; i+1 < len(kv); i += 2 {
		if s != "" {
			s += ","
		}
		s += kv[i] + `="` + kv[i+1] + `"`
	}
	return s
}

// lookup finds or creates the metric slot for name+labels.
func (r *Registry) lookup(name string, kv []string) *metric {
	labels := renderLabels(kv)
	key := name
	if labels != "" {
		key = name + "{" + labels + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		return m
	}
	m := &metric{name: name, labels: labels}
	r.byKey[key] = m
	r.list = append(r.list, m)
	return m
}

// Counter resolves (creating if absent) the counter name{kv...}.
// kv is a flat key,value,key,value list.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	m := r.lookup(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge resolves (creating if absent) the gauge name{kv...}.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	m := r.lookup(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram resolves (creating if absent) the duration histogram
// name{kv...}.
func (r *Registry) Histogram(name string, kv ...string) *Histogram {
	m := r.lookup(name, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.h == nil {
		m.h = &Histogram{}
	}
	return m.h
}

// MetricSnap is one metric's point-in-time reading.
type MetricSnap struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Kind   string `json:"kind"`
	Value  int64  `json:"value,omitempty"`  // counter / gauge
	Count  int64  `json:"count,omitempty"`  // histogram observations
	SumNs  int64  `json:"sum_ns,omitempty"` // histogram total
	P50Ns  int64  `json:"p50_ns,omitempty"` // derived quantiles
	P90Ns  int64  `json:"p90_ns,omitempty"`
	P99Ns  int64  `json:"p99_ns,omitempty"`
}

// Snapshot reads every registered metric, sorted by name then labels.
func (r *Registry) Snapshot() []MetricSnap {
	r.mu.Lock()
	list := append([]*metric(nil), r.list...)
	r.mu.Unlock()
	out := make([]MetricSnap, 0, len(list))
	for _, m := range list {
		s := MetricSnap{Name: m.name, Labels: m.labels}
		switch {
		case m.c != nil:
			s.Kind = kindCounter
			s.Value = m.c.Load()
		case m.g != nil:
			s.Kind = kindGauge
			s.Value = m.g.Load()
		case m.h != nil:
			s.Kind = kindHist
			s.Count = m.h.Count()
			s.SumNs = m.h.Sum()
			s.P50Ns = int64(m.h.Quantile(0.50))
			s.P90Ns = int64(m.h.Quantile(0.90))
			s.P99Ns = int64(m.h.Quantile(0.99))
		default:
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// Default is the process-wide registry every serving layer records into;
// Log is the process-wide event journal beside it. Shard daemons sample
// Default into their barrier acks, which is how one process's registry
// becomes a fleet's.
var (
	Default = NewRegistry()
	Log     = NewJournal(1024)
)

// C resolves a counter in the default registry.
func C(name string, kv ...string) *Counter { return Default.Counter(name, kv...) }

// G resolves a gauge in the default registry.
func G(name string, kv ...string) *Gauge { return Default.Gauge(name, kv...) }

// H resolves a histogram in the default registry.
func H(name string, kv ...string) *Histogram { return Default.Histogram(name, kv...) }
