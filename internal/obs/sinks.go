package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// RingSink keeps the last N events in memory — the always-cheap sink for
// post-mortem inspection and tests.
type RingSink struct {
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewRingSink creates a ring holding up to capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 1024
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Write implements Sink.
func (r *RingSink) Write(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % cap(r.buf)
	r.wrapped = true
	r.dropped++
}

// Events returns the retained events in emission order.
func (r *RingSink) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped returns how many events fell off the ring.
func (r *RingSink) Dropped() uint64 { return r.dropped }

// SinkMetrics implements SinkMetrics: ring overflow is trace loss.
func (r *RingSink) SinkMetrics(put func(name string, v uint64)) {
	put("trace_ring_dropped_total", r.dropped)
}

// Close implements Sink.
func (r *RingSink) Close() error { return nil }

// jsonEvent is the Chrome sink's wire form.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func toJSONEvent(ev Event) jsonEvent {
	je := jsonEvent{
		Name: ev.Name,
		Cat:  ev.Cat,
		Ph:   string(ev.Phase),
		TS:   ev.TS,
		TID:  ev.Thread,
		Args: ev.Args,
	}
	if ev.Phase == PhaseInstant {
		je.S = "t" // thread-scoped instant
	}
	return je
}

// ChromeSink streams the Chrome trace_event JSON-array format: the output
// loads directly in chrome://tracing and Perfetto, turning the task
// schedule into an interactive timeline. TS is written verbatim (block
// clock as microseconds — virtual time, arbitrary units).
type ChromeSink struct {
	w   io.Writer
	n   uint64
	err error
}

// NewChromeSink creates a trace_event sink over w; if w is an io.Closer it
// is closed by Close.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{w: w}
}

// Write implements Sink.
func (s *ChromeSink) Write(ev Event) {
	if s.err != nil {
		return
	}
	sep := ",\n"
	if s.n == 0 {
		sep = "[\n"
	}
	b, err := json.Marshal(toJSONEvent(ev))
	if err != nil {
		s.err = err
		return
	}
	if _, err := io.WriteString(s.w, sep); err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Close finalizes the JSON array (an empty trace becomes "[]").
func (s *ChromeSink) Close() error {
	if s.err == nil {
		tail := "\n]\n"
		if s.n == 0 {
			tail = "[]\n"
		}
		_, s.err = io.WriteString(s.w, tail)
	}
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && s.err == nil {
			s.err = cerr
		}
	}
	if s.err != nil {
		return fmt.Errorf("obs: chrome sink: %w", s.err)
	}
	return nil
}
