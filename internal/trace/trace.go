// Package trace renders an execution timeline — which thread ran which
// task when, in block-clock time — as a text Gantt chart. The spans come
// from the observability layer's span stream as recorded in a run store
// (internal/obs/store), the same data `taskgrind query gantt` reads; the
// CLI's -trace flag renders its run through that path.
//
// This is debugging/tooling for the "parallel programming assistant"
// direction of the paper's conclusion: seeing the schedule that produced a
// report makes the report actionable.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Span is one executed task interval on a thread, in block-count time.
type Span struct {
	Thread int
	TaskID uint64
	Label  string
	// Start and End are machine block counts.
	Start, End uint64
}

// Gantt renders a task timeline: one row per thread, columns are block-time
// buckets, letters identify tasks.
func Gantt(w io.Writer, spans []Span, width int) error {
	if len(spans) == 0 {
		_, err := fmt.Fprintln(w, "(no task spans recorded)")
		return err
	}
	if width <= 0 {
		width = 72
	}
	var maxEnd uint64
	maxThread := 0
	ids := map[uint64]int{}
	for _, s := range spans {
		if s.End > maxEnd {
			maxEnd = s.End
		}
		if s.Thread > maxThread {
			maxThread = s.Thread
		}
		if _, ok := ids[s.TaskID]; !ok {
			ids[s.TaskID] = len(ids)
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	glyph := func(task uint64) byte {
		const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
		return alphabet[ids[task]%len(alphabet)]
	}
	for tid := 0; tid <= maxThread; tid++ {
		row := bytesRepeat('.', width)
		for _, s := range spans {
			if s.Thread != tid {
				continue
			}
			lo := int(s.Start * uint64(width) / maxEnd)
			hi := int(s.End * uint64(width) / maxEnd)
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = glyph(s.TaskID)
			}
		}
		if _, err := fmt.Fprintf(w, "thr %d |%s|\n", tid, row); err != nil {
			return err
		}
	}
	// Legend.
	type ent struct {
		id    uint64
		label string
	}
	var legend []ent
	seen := map[uint64]bool{}
	for _, s := range spans {
		if !seen[s.TaskID] && s.Label != "" && s.Label != "implicit" {
			seen[s.TaskID] = true
			legend = append(legend, ent{s.TaskID, s.Label})
		}
	}
	sort.Slice(legend, func(i, j int) bool { return ids[legend[i].id] < ids[legend[j].id] })
	var parts []string
	for _, e := range legend {
		parts = append(parts, fmt.Sprintf("%c=%s", glyph(e.id), e.label))
	}
	if len(parts) > 0 {
		if _, err := fmt.Fprintln(w, "      ", strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}
