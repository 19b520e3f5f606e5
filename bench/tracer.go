package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a layer. The observer
// lives outside the program: spans are opened and closed only in bench's
// own files, around exported functions of the layers.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // id of the span that caused this one, -1 at the root
	Op     int    `json:"op"`     // one id per op; -1 for set-up and layer probes
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time covered by child spans
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same code at no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is the parent of root spans and the id a nil tracer hands out.
const noSpan = -1

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTotal is the per-name roll-up written next to the raw spans.
type layerTotal struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// finish derives every span's self time and the per-name totals.
func (t *tracer) finish() []layerTotal {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	byName := map[string]*layerTotal{}
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalNS += s.End - s.Start
		lt.SelfNS += s.Self
	}
	out := make([]layerTotal, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// write stores the trace as one JSON document.
func (t *tracer) write(path, workload string, seed uint64) error {
	doc := struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Layers   []layerTotal `json:"layers"`
		Spans    []span       `json:"spans"`
	}{workload, seed, t.finish(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
