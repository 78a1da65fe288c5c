package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, seen from the benchmark's side of the
// call. Times are nanoseconds since the recorder started. Calls of one
// request share req; parent is the phase (or call) that caused the span.
type span struct {
	Name       string
	ID, Parent int32
	Req        int64
	Start, End int64
}

// counterSnap is the counters' reading at a phase boundary.
type counterSnap struct {
	At       string           `json:"at"`
	AtNs     int64            `json:"at_ns"`
	Counters map[string]int64 `json:"counters"`
}

// recorder keeps spans in memory until the run ends. Each goroutine
// records into a lane of its own, so recording takes no lock.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // phase spans, then the lanes' spans once merged
	lanes []*lane
	snaps []counterSnap
}

type lane struct {
	rec   *recorder
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// phase opens a top-level span and returns its id; the returned func ends
// it. A nil recorder records nothing, which is how untraced runs use the
// same code.
func (r *recorder) phase(name string) (int32, func()) {
	if r == nil {
		return 0, func() {}
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, ID: id, Start: r.since(time.Now())})
	r.mu.Unlock()
	return id, func() {
		r.mu.Lock()
		r.spans[id-1].End = r.since(time.Now())
		r.mu.Unlock()
	}
}

func (r *recorder) lane() *lane {
	if r == nil {
		return nil
	}
	l := &lane{rec: r}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// add records a finished call. A nil lane records nothing.
func (l *lane) add(name string, parent int32, req int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Req: req, Start: l.rec.since(start), End: l.rec.since(end)})
}

func (r *recorder) snapshot(at string, counters map[string]int64) {
	if r == nil {
		return
	}
	r.snaps = append(r.snaps, counterSnap{At: at, AtNs: r.since(time.Now()), Counters: counters})
}

// merged returns every span with ids assigned; call it once the lanes'
// goroutines have stopped.
func (r *recorder) merged() []span {
	out := append([]span(nil), r.spans...)
	for _, l := range r.lanes {
		for _, s := range l.spans {
			s.ID = int32(len(out) + 1)
			out = append(out, s)
		}
	}
	return out
}

// selfTimes gives each span's duration minus the part of its interval that
// its child spans cover. Children may overlap one another (concurrent
// clients under one phase), so the covered part is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[int32]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int32][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func totalsByName(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := map[string]spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += self[s.ID]
		out[s.Name] = t
	}
	return out
}

// writeTrace writes the run's spans, their per-name totals and the counter
// snapshots. Spans go out as [name index, id, parent, req, start, end] rows
// to keep a few hundred thousand of them to a few megabytes.
func writeTrace(path string, env runEnv, rec *recorder, ladder []rung) error {
	spans := rec.merged()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names, index := []string{}, map[string]int{}
	for _, s := range spans {
		if _, ok := index[s.Name]; !ok {
			index[s.Name] = len(names)
			names = append(names, s.Name)
		}
	}
	head, err := json.Marshal(map[string]any{
		"env": env, "totals": totalsByName(spans), "counters": rec.snaps,
		"ladder": ladder, "span_names": names,
		"span_columns": []string{"name", "id", "parent", "req", "start_ns", "end_ns"},
	})
	if err != nil {
		f.Close()
		return err
	}
	w.Write(head[:len(head)-1])
	w.WriteString(`,"spans":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]", index[s.Name], s.ID, s.Parent, s.Req, s.Start, s.End)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
