package store

import (
	"fmt"

	"repro/internal/obs"
)

// StoreSink adapts a RunWriter to the obs.Sink interface: Begin/End pairs
// become spans (paired on a per-thread stack), instants become instant
// rows. It lives on the tracing fast path, so per-event work is a few map
// lookups plus column appends.
type StoreSink struct {
	rw *RunWriter

	// SymFn resolves a guest PC to its enclosing symbol name ("" when
	// unknown). Optional; typically guest.Image-backed.
	SymFn func(pc uint64) string

	open  map[int][]openSpan
	maxTS uint64
	// unbalanced counts end events that matched no open span on their
	// thread. A correct event stream never produces one; counting them
	// surfaces a stream bug instead of silently dropping the end.
	unbalanced uint64
}

type openSpan struct {
	cat, name string
	label     string
	ts        uint64
	pc        uint64
}

// NewStoreSink wraps a RunWriter as an event sink.
func NewStoreSink(rw *RunWriter) *StoreSink {
	return &StoreSink{rw: rw, open: make(map[int][]openSpan)}
}

// argU64 extracts a numeric event argument.
func argU64(args map[string]any, key string) (uint64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case uint64:
		return n, true
	case int:
		return uint64(n), true
	case int64:
		return uint64(n), true
	case uint32:
		return uint64(n), true
	case uint:
		return uint64(n), true
	}
	return 0, false
}

// eventPC pulls the guest PC out of an event's args: task events carry the
// outlined function under "fn", translations the block address under "addr".
func eventPC(args map[string]any) uint64 {
	for _, k := range [...]string{"fn", "addr", "pc"} {
		if v, ok := argU64(args, k); ok {
			return v
		}
	}
	return 0
}

// eventArg pulls the primary numeric payload of an instant.
func eventArg(args map[string]any) uint64 {
	for _, k := range [...]string{"task", "addr", "pc", "region", "victim", "hits"} {
		if v, ok := argU64(args, k); ok {
			return v
		}
	}
	return 0
}

// spanKind maps an event's cat/name to the stored span kind.
func spanKind(cat, name string) string {
	switch {
	case cat == "omp" && (name == "task" || name == "parallel" || name == "implicit"):
		return name
	case cat == "dbi" && name == "translate":
		return "translation"
	}
	return cat + "/" + name
}

// spanLabel builds the human label for a span from its begin event.
func spanLabel(name string, args map[string]any) string {
	if id, ok := argU64(args, "task"); ok {
		return fmt.Sprintf("task#%d", id)
	}
	if id, ok := argU64(args, "region"); ok {
		return fmt.Sprintf("region#%d", id)
	}
	if a, ok := argU64(args, "addr"); ok {
		return fmt.Sprintf("0x%x", a)
	}
	return name
}

func (s *StoreSink) sym(pc uint64) string {
	if pc == 0 || s.SymFn == nil {
		return ""
	}
	return s.SymFn(pc)
}

// Write implements obs.Sink.
func (s *StoreSink) Write(ev obs.Event) {
	if ev.TS > s.maxTS {
		s.maxTS = ev.TS
	}
	switch ev.Phase {
	case obs.PhaseBegin:
		s.open[ev.Thread] = append(s.open[ev.Thread], openSpan{
			cat: ev.Cat, name: ev.Name,
			label: spanLabel(ev.Name, ev.Args),
			ts:    ev.TS, pc: eventPC(ev.Args),
		})
	case obs.PhaseEnd:
		stack := s.open[ev.Thread]
		// Pop the nearest matching begin; mismatches (lost begins) are
		// counted and drop the end rather than corrupting the stack.
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].cat == ev.Cat && stack[i].name == ev.Name {
				sp := stack[i]
				s.open[ev.Thread] = append(stack[:i], stack[i+1:]...)
				s.rw.Span(ev.Thread, spanKind(sp.cat, sp.name), sp.label,
					s.sym(sp.pc), sp.pc, sp.ts, ev.TS)
				return
			}
		}
		s.unbalanced++
	default: // instants and diagnostics
		s.rw.Instant(ev.TS, ev.Thread, ev.Cat, ev.Name, eventArg(ev.Args))
	}
}

// Close settles any still-open spans (interrupted runs: crashes, timeouts)
// at the last seen clock value. It does not Finish the run — the harness
// appends counters and the verdict first.
func (s *StoreSink) Close() error {
	for thread, stack := range s.open {
		for i := len(stack) - 1; i >= 0; i-- {
			sp := stack[i]
			s.rw.Span(thread, spanKind(sp.cat, sp.name), sp.label,
				s.sym(sp.pc), sp.pc, sp.ts, s.maxTS)
		}
		delete(s.open, thread)
	}
	return nil
}

// SinkMetrics implements obs.SinkMetrics, surfacing recording loss and
// unbalanced span ends.
func (s *StoreSink) SinkMetrics(put func(name string, v uint64)) {
	put("trace_store_dropped_events_total", s.rw.Dropped())
	put("trace_store_unbalanced_ends_total", s.unbalanced)
}
