package harness

// The run supervisor: crash recovery, replay verification and engine-
// fallback degradation on top of the decision journal.
//
// Because tool and runtime state are host-side object graphs, a "rewind" is
// implemented as deterministic re-execution: a fresh instance is built from
// the same configuration and driven under the recorded journal, which
// verifies — decision by decision, and state digest by state digest at every
// mark — that the reconstruction walks the recorded timeline. This is the
// same trick that makes Valgrind-style serialized schedulers replayable: the
// run is a pure function of its configuration, so re-executing IS restoring,
// and the marks' role is to prove it. No machine state or guest memory is
// ever captured beyond the marks.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dbi"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// SetupFactory builds a fresh Setup for each (re-)execution attempt. It must
// return an equivalent configuration every call (same image, seed, tool
// construction, injection spec): the supervisor's recovery guarantees assume
// attempt N replays attempt 0's timeline. The Journal field is overwritten
// by the supervisor.
type SetupFactory func() Setup

// Failure taxonomy values (SupResult.Taxonomy, explore quarantine, daemon
// job status).
const (
	TaxFault      = "fault"      // GuestFault: wild guest access
	TaxPanic      = "panic"      // HostPanic: host-side defect (engine, tool)
	TaxTimeout    = "timeout"    // watchdog budget exhausted
	TaxDeadlock   = "deadlock"   // no runnable threads
	TaxDivergence = "divergence" // replay departed from the recording
	TaxCanceled   = "canceled"   // run context canceled (administrative stop)
	TaxError      = "error"      // other (plain) error
)

// Classify maps a run error to the failure taxonomy ("" for nil).
func Classify(err error) string {
	if err == nil {
		return ""
	}
	var div *snapshot.Divergence
	var gf *vm.GuestFault
	var hp *vm.HostPanic
	var wd *vm.WatchdogError
	var dl *vm.DeadlockError
	var ce *vm.CanceledError
	switch {
	case errors.As(err, &div):
		return TaxDivergence
	case errors.As(err, &gf):
		return TaxFault
	case errors.As(err, &hp):
		return TaxPanic
	case errors.As(err, &wd):
		return TaxTimeout
	case errors.As(err, &dl):
		return TaxDeadlock
	case errors.As(err, &ce):
		return TaxCanceled
	}
	return TaxError
}

// ExitCodeFor maps a failure taxonomy to the CLI's documented exit code —
// the one table shared by `taskgrind` (process exit), `taskgrind submit
// -wait` and the daemon's job status rendering. 0/1/2 (clean, reports
// found, usage error) are CLI-level outcomes with no taxonomy and are not
// produced here.
func ExitCodeFor(taxonomy string) int {
	switch taxonomy {
	case TaxFault:
		return 3
	case TaxPanic:
		return 4
	case TaxTimeout:
		return 5
	case TaxDeadlock:
		return 6
	case TaxDivergence:
		return 7
	case TaxCanceled:
		return 8
	default: // TaxError and anything unrecognized
		return 2
	}
}

// markEvery is the supervisor's state-mark cadence in timeslices: it bounds
// how far back a failure window reaches.
const markEvery = 16

// SupResult is a supervised run's outcome.
type SupResult struct {
	Result
	// Attempts counts executions (first run + replays + fallback).
	Attempts int
	// FellBack reports that the run completed under the IR oracle after
	// the configured engine failed.
	FellBack bool
	// Taxonomy classifies the original failure ("" when the first attempt
	// succeeded); see the Tax* constants.
	Taxonomy string
	// Reproduced reports that the crash replayed and the rendered report
	// came back bit-identical.
	Reproduced bool
	// Window is the [last-verified-slice, failing-slice] interval the
	// failure was narrowed to (zero when the run succeeded).
	Window [2]uint64
	// Marks is the number of state marks the first attempt recorded.
	Marks int
	// Inst is the instance that produced Result (the fallback instance
	// when FellBack): its tool carries the surviving run's reports.
	Inst *Instance
}

// buildSupervised constructs one attempt's instance under journal j.
// engine overrides the factory's engine choice when non-empty.
func buildSupervised(factory SetupFactory, j *snapshot.Journal, engine string) (*Instance, error) {
	s := factory()
	s.Journal = j
	if engine != "" {
		s.Engine = engine
	}
	return New(s)
}

// Supervise runs the configured program under the recovery supervisor,
// under ctx (nil: not cancelable). The first attempt records a full
// decision journal with a state mark every markEvery slices. A crash must
// reproduce once, bit-identically, under journal-verified replay before it
// counts as real; a host panic then drives a rewound re-execution under the
// IR oracle that must walk the recorded timeline up to the panic point
// before continuing past it. A cancel interrupts whichever attempt is in
// flight within one timeslice, and the canceled attempt is classified
// TaxCanceled: a canceled run proves nothing, so neither the replay nor the
// fallback follows one.
func Supervise(ctx context.Context, factory SetupFactory) (SupResult, error) {
	var sup SupResult

	journal := snapshot.NewJournal()
	journal.MarkEvery = markEvery
	inst, err := buildSupervised(factory, journal, "")
	if err != nil {
		return sup, fmt.Errorf("harness: supervise: %w", err)
	}
	sup.Attempts = 1
	sup.Result = inst.RunCtx(ctx)
	sup.Inst = inst
	sup.Marks = len(journal.Marks())
	if sup.Err == nil {
		return sup, nil
	}
	sup.Taxonomy = Classify(sup.Err)
	if sup.Taxonomy == TaxCanceled {
		// An administrative stop: nothing to verify or degrade from.
		return sup, nil
	}

	// Narrow the failure window: everything up to the last recorded state
	// mark is verified ground; the failure fired between there and the
	// machine's final slice.
	failSlice := inst.M.Slices
	var lastMark uint64
	if marks := journal.Marks(); len(marks) > 0 {
		lastMark = marks[len(marks)-1].Slice
	}
	sup.Window = [2]uint64{lastMark, failSlice}

	// Replay-verify: a crash must reproduce once, bit-identically, before
	// it is reported as real (quarantine semantics for explore).
	if sup.Crash != nil {
		v := journal.Verifier(false)
		replay, err := buildSupervised(factory, v, "")
		if err != nil {
			return sup, fmt.Errorf("harness: supervise replay: %w", err)
		}
		sup.Attempts++
		rres := replay.RunCtx(ctx)
		sup.Reproduced = rres.Crash != nil && v.Err() == nil &&
			rres.Crash.Render(replay.M.Image) == sup.Crash.Render(inst.M.Image)
	}

	// Graceful degradation: a host panic rewinds and re-executes under the
	// IR oracle. The soft verifier cross-checks the fallback against the
	// recorded timeline (picks, injection draws, state marks); a divergence
	// *before* the panic point means the configured engine was corrupting
	// state earlier than it crashed, and is surfaced as TaxDivergence with
	// a narrowed window.
	var hp *vm.HostPanic
	if errors.As(sup.Err, &hp) {
		v := journal.Verifier(true)
		fb, err := buildSupervised(factory, v, dbi.EngineIR)
		if err != nil {
			return sup, fmt.Errorf("harness: supervise fallback: %w", err)
		}
		sup.Attempts++
		fres := fb.RunCtx(ctx)
		sup.Inst = fb
		if fres.Err == nil {
			sup.FellBack = true
			sup.Result = fres
			if d := v.Err(); d != nil && d.Slice < failSlice {
				sup.Taxonomy = TaxDivergence
				sup.Window = markWindow(journal, v, d.Slice)
			}
		} else {
			// The oracle failed too: the failure is real (a guest bug or
			// environment fault, not an engine defect). Report the
			// fallback's outcome.
			sup.Result = fres
			sup.Taxonomy = Classify(fres.Err)
		}
	}
	return sup, nil
}

// markWindow narrows a divergence at failSlice to the interval between the
// last mark the verifier matched and the divergence point.
func markWindow(rec *snapshot.Journal, v *snapshot.Journal, failSlice uint64) [2]uint64 {
	var lo uint64
	if n := v.MarksMatched(); n > 0 {
		lo = rec.Marks()[n-1].Slice
	}
	return [2]uint64{lo, failSlice}
}
