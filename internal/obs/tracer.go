package obs

// Phase classifies a trace event, mirroring the Chrome trace_event `ph`
// field: duration Begin/End pairs and Instant markers.
type Phase byte

// Phases.
const (
	PhaseBegin   Phase = 'B'
	PhaseEnd     Phase = 'E'
	PhaseInstant Phase = 'i'
)

// Event is one structured trace record. TS is the machine's block clock
// (deterministic virtual time); Thread is the guest thread the event is
// attributed to.
type Event struct {
	TS     uint64
	Thread int
	Phase  Phase
	// Cat groups events by subsystem: "dbi", "sched", "omp", "core".
	Cat  string
	Name string
	// Args carries event payload; values should be JSON-encodable.
	Args map[string]any
}

// Sink consumes a stream of events.
type Sink interface {
	Write(ev Event)
	// Close flushes and finalizes the sink's output.
	Close() error
}

// SinkMetrics is implemented by sinks that account for trace loss or other
// recording statistics; Tracer.PublishMetrics surfaces them as counters so
// dropped events show up in -v output instead of disappearing silently.
type SinkMetrics interface {
	SinkMetrics(put func(name string, v uint64))
}

// Tracer fans events out to its sinks. A nil *Tracer is valid and drops
// everything, so subsystems can emit unconditionally through a possibly-nil
// pointer.
type Tracer struct {
	sinks  []Sink
	events uint64
}

// NewTracer creates a tracer writing to the given sinks.
func NewTracer(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// Enabled reports whether the tracer exists and has at least one sink.
func (tr *Tracer) Enabled() bool { return tr != nil && len(tr.sinks) > 0 }

// Emit delivers an event to every sink.
func (tr *Tracer) Emit(ev Event) {
	if tr == nil {
		return
	}
	tr.events++
	for _, s := range tr.sinks {
		s.Write(ev)
	}
}

// Begin emits a duration-begin event.
func (tr *Tracer) Begin(ts uint64, thread int, cat, name string, args map[string]any) {
	tr.Emit(Event{TS: ts, Thread: thread, Phase: PhaseBegin, Cat: cat, Name: name, Args: args})
}

// End emits a duration-end event.
func (tr *Tracer) End(ts uint64, thread int, cat, name string, args map[string]any) {
	tr.Emit(Event{TS: ts, Thread: thread, Phase: PhaseEnd, Cat: cat, Name: name, Args: args})
}

// Instant emits an instant event.
func (tr *Tracer) Instant(ts uint64, thread int, cat, name string, args map[string]any) {
	tr.Emit(Event{TS: ts, Thread: thread, Phase: PhaseInstant, Cat: cat, Name: name, Args: args})
}

// Events returns the number of events emitted.
func (tr *Tracer) Events() uint64 {
	if tr == nil {
		return 0
	}
	return tr.events
}

// PublishMetrics copies tracer and sink accounting (events emitted, ring
// drops, store drop counts) into the registry. Call at capture time.
func (tr *Tracer) PublishMetrics(reg *Registry) {
	if tr == nil || reg == nil {
		return
	}
	reg.Counter("trace_events_total").Set(tr.events)
	for _, s := range tr.sinks {
		if sm, ok := s.(SinkMetrics); ok {
			sm.SinkMetrics(func(name string, v uint64) {
				reg.Counter(name).Set(v)
			})
		}
	}
}

// Close closes every sink, returning the first error.
func (tr *Tracer) Close() error {
	if tr == nil {
		return nil
	}
	var first error
	for _, s := range tr.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
