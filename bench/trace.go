package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation (a count of one graph, one HTTP request, one ingest batch)
// share Op; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so an untraced loop pays one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// finish closes the span start returned.
func (t *tracer) finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerSelf is one layer's share of the traced time.
type layerSelf struct {
	Layer string
	Spans int
	Self  time.Duration
}

// selfTimes sums each layer's self time: a span's duration minus the
// part its children cover. The benchmark nests child spans
// sequentially inside their parent, so the children's durations add
// up to the covered part. The layer is the span name up to its first
// dot.
func (t *tracer) selfTimes() []layerSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	byLayer := map[string]*layerSelf{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		ls := byLayer[layer]
		if ls == nil {
			ls = &layerSelf{Layer: layer}
			byLayer[layer] = ls
		}
		ls.Spans++
		ls.Self += time.Duration(self[i])
	}
	out := make([]layerSelf, 0, len(byLayer))
	for _, ls := range byLayer {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-10s %8s %12s\n", "layer", "spans", "self_ms")
	for _, ls := range t.selfTimes() {
		fmt.Fprintf(w, "%-10s %8d %12.3f\n", ls.Layer, ls.Spans, float64(ls.Self)/1e6)
	}
}

// writeFile writes every span as JSON.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
