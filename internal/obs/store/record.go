// Package store is the queryable recording backend of the observability
// layer: an append-only, columnar run store holding many analysis runs —
// spans (task/parallel/translation intervals on the block clock), instants
// (steals, preemptions, faults, injections), and counter/profile samples —
// plus a per-run header carrying the run's configuration and verdict.
//
// The design follows the recorder idiom of akita's datarecording (SQLite
// memory-tracer schema: structured tables recorded through a backend,
// queried offline), realized without cgo or SQLite: one store is a
// directory of segment files, one per writer session; each run is one
// CRC-framed block holding a JSON header, a string dictionary and varint
// delta-encoded columns. A reader walks the frames, filters runs by their
// headers, and decodes event columns only for the runs a query selects.
// A store has one writer at a time. Because every record's clock is the
// machine's deterministic block counter, two runs of the same seed
// produce byte-identical blocks — the property the golden query tests
// pin.
package store

import "repro/internal/report"

// Verdict values for RunHeader.Verdict. A successful run records VerdictOK;
// failed runs record their harness failure taxonomy (fault, panic, timeout,
// deadlock, divergence, error).
const VerdictOK = "ok"

// RunHeader identifies and summarizes one recorded run. It is stored as a
// JSON section at the head of the run's block (headers are small; the bulk
// event data is columnar), so queries select runs without decoding events.
type RunHeader struct {
	// ID is the store-assigned run identity (unique within a store,
	// monotonically increasing across append sessions).
	ID uint64 `json:"id"`
	// Prog/Tool/Engine/Seed/Threads are the run configuration — the same
	// fields a replay token encodes.
	Prog    string `json:"prog,omitempty"`
	Tool    string `json:"tool,omitempty"`
	Engine  string `json:"engine,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Verdict is VerdictOK or the failure taxonomy kind.
	Verdict string `json:"verdict"`
	// Reports is the tool's report count (the Table I/II currency).
	Reports int `json:"reports"`
	// Reproduced marks a quarantined crash that replayed bit-identically
	// before being reported (supervised sweeps only).
	Reproduced bool `json:"reproduced,omitempty"`
	// ReplayToken reproduces the run (`taskgrind -replay <token>`).
	ReplayToken string `json:"replay_token,omitempty"`
	// Digest is the run's digest sum (harness.Digest.Sum); empty in runs
	// recorded by older builds.
	Digest string `json:"digest,omitempty"`
	// Err is the rendered run error for failed runs.
	Err string `json:"err,omitempty"`
	// WallNanos is host wall time (nondeterministic; excluded from golden
	// comparisons). Instrs/Blocks are the deterministic work metrics.
	WallNanos uint64 `json:"wall_nanos,omitempty"`
	Instrs    uint64 `json:"instrs,omitempty"`
	Blocks    uint64 `json:"blocks,omitempty"`
	// Counters is the final metrics snapshot (counter keys only).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Races carries the run's race-report rows for cross-run joins.
	Races []RaceRow `json:"races,omitempty"`
}

// RaceRow is one race report, flattened for storage: the segment pair, the
// executing threads, the access kind and the first conflicting range.
type RaceRow struct {
	SegA    string `json:"seg_a"`
	SegB    string `json:"seg_b"`
	ThreadA int    `json:"thread_a"`
	ThreadB int    `json:"thread_b"`
	Kind    string `json:"kind"`
	Addr    uint64 `json:"addr,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
	Region  string `json:"region,omitempty"`
}

// RacesFromSet flattens a determinacy-race report set into storable rows.
func RacesFromSet(s *report.Set) []RaceRow {
	if s == nil || len(s.Races) == 0 {
		return nil
	}
	rows := make([]RaceRow, 0, len(s.Races))
	for _, r := range s.Races {
		row := RaceRow{
			SegA: r.SegA, SegB: r.SegB,
			ThreadA: r.ThreadA, ThreadB: r.ThreadB,
			Kind: r.Kind,
		}
		if len(r.Ranges) > 0 {
			rg := r.Ranges[0]
			row.Addr = rg.Lo
			row.Region = rg.Region.String()
		}
		row.Bytes = r.Bytes()
		rows = append(rows, row)
	}
	return rows
}

// Span is one recorded interval: a task, implicit task, parallel region or
// translation, attributed to a guest thread, a guest PC and a symbol, on the
// block clock.
type Span struct {
	Run    uint64 `json:"run"`
	Thread int    `json:"thread"`
	// Kind is "task", "implicit", "parallel", "translation", or "cat/name"
	// for other Begin/End pairs.
	Kind string `json:"kind"`
	// Name is the human label (e.g. "task.c:8" for a task, the target
	// symbol for a translation).
	Name string `json:"name,omitempty"`
	// Sym is the enclosing guest symbol of PC, when resolvable.
	Sym string `json:"sym,omitempty"`
	PC  uint64 `json:"pc,omitempty"`
	// Start and End are block-clock times.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Instant is one recorded point event: a steal, a preemption (scheduler
// switch), a fault-injection firing.
type Instant struct {
	Run    uint64 `json:"run"`
	TS     uint64 `json:"ts"`
	Thread int    `json:"thread"`
	// Kind is the event category ("sched", "omp", "dbi", "inject").
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Arg carries the event's primary numeric payload (task id, address),
	// zero when none.
	Arg uint64 `json:"arg,omitempty"`
}

// Sample is one weighted guest-PC profile sample: Weight guest instructions
// retired at blocks starting at PC.
type Sample struct {
	Run    uint64 `json:"run"`
	PC     uint64 `json:"pc"`
	Sym    string `json:"sym,omitempty"`
	Weight uint64 `json:"weight"`
}

// RunData is one fully decoded run block.
type RunData struct {
	Header   RunHeader
	Spans    []Span
	Instants []Instant
	Samples  []Sample
}
