package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The layers a run's time splits into, in call order. Each is a span the
// benchmark records around one public call (or a fixed pair of calls) of the
// program; nothing inside the program is traced.
var layers = []string{"gbuild.link", "harness.new", "vm.run", "core.fini", "report.render"}

// span is one timed call: a run (or served job), or a layer call inside one.
type span struct {
	name       string
	run        int
	parent     int // index into tracer.spans; -1 for a root span
	start, end time.Duration
}

// tracer keeps spans in memory for the traced pass. A nil tracer records
// nothing, which is the untraced pass.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, run, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, run: run, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].end = time.Since(t.epoch)
	}
}

// add records a span whose times were taken elsewhere (a served job's
// JobView timestamps).
func (t *tracer) add(name string, run, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name: name, run: run, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// selfTimes returns, per root span of the given name, its duration and the
// self time of each span name under it: a span's duration minus the
// durations of its children (children of one span never overlap).
func (t *tracer) selfTimes(root string) (walls []time.Duration, self []map[string]time.Duration) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	index := map[int]int{} // root span index -> position in walls
	for i, s := range t.spans {
		if s.parent < 0 && s.name == root {
			index[i] = len(walls)
			walls = append(walls, s.end-s.start)
			self = append(self, map[string]time.Duration{})
		}
	}
	for i, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		if k, ok := index[s.parent]; ok {
			self[k][s.name] += s.end - s.start - child[i]
		}
	}
	return walls, self
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, one track per run.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		name, _ := json.Marshal(s.name)
		par, _ := json.Marshal(parent)
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%s,"cat":"tgbench","ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"run":%d,"parent":%s}}`,
			name, s.run, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.run, par)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
