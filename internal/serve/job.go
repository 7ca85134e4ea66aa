// Package serve is the analysis-as-a-service layer: a fault-contained,
// long-running daemon core that accepts analysis jobs (program + tool +
// seed range + fault injection + budgets), runs them on a bounded
// worker pool, and is robust by construction — per-job isolation through
// the harness supervisor, bounded-queue admission control that sheds load
// instead of growing without bound, context-based cancellation that
// interrupts a running guest within one timeslice, and graceful drain that
// persists queued work. A job runs once: a run is a pure function of its
// spec, so running it again would repeat its result. A guest fault, host
// panic, watchdog trip or deadlock inside a job is classified, optionally
// verified by replay, and reported as that job's *result*; the server
// never dies with it.
//
// cmd/taskgrindd wraps this package in an HTTP/JSON binary; the HTTP
// surface itself lives here (Handler) so tests and benchmarks drive the
// daemon in-process.
package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/explore"
)

// JobSpec is one analysis job's complete configuration: the run recipe
// every front end shares, so a job's replay token, rendered output and
// crash report equal those of the equivalent `taskgrind` invocation. The
// zero value of every field is a sensible default, so `{"prog":"task.c"}`
// is a valid submission.
type JobSpec = explore.Spec

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is executing the job.
	StatusRunning Status = "running"
	// StatusDone: terminal, the analysis completed (reports may be > 0).
	StatusDone Status = "done"
	// StatusFailed: terminal, the run ended in a classified failure;
	// Result.Verdict carries the taxonomy and Result.ReplayToken reproduces
	// it.
	StatusFailed Status = "failed"
	// StatusCanceled: terminal, canceled while queued or interrupted while
	// running.
	StatusCanceled Status = "canceled"
	// StatusParked: terminal for this process — the job was still queued at
	// drain time and was persisted to the state file for the next daemon.
	StatusParked Status = "parked"
)

// Terminal reports whether a status is final for this daemon process.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusCanceled, StatusParked:
		return true
	}
	return false
}

// JobResult is a terminal job's outcome.
type JobResult struct {
	// Verdict is "ok" or the failure taxonomy (harness.Tax*).
	Verdict string `json:"verdict"`
	// Reports is the surviving tool's report count (races found).
	Reports int `json:"reports"`
	// Output is the rendered tool report (done jobs).
	Output string `json:"output,omitempty"`
	// Err and Crash describe a failed job: the error string and the
	// symbolized Valgrind-style crash report (byte-identical on replay).
	Err   string `json:"err,omitempty"`
	Crash string `json:"crash,omitempty"`
	// ReplayToken reproduces this run: `taskgrind -replay <token>` or a
	// re-submission by token.
	ReplayToken string `json:"replay_token,omitempty"`
	// Reproduced reports a supervised crash replayed bit-identically.
	Reproduced bool `json:"reproduced,omitempty"`
	// FellBack reports a supervised job that completed under the IR oracle
	// after the configured engine panicked.
	FellBack bool `json:"fell_back,omitempty"`
	// Attempts is always 1: a job runs once.
	Attempts int `json:"attempts"`
	// GuestInstrs/WallMS are the run's work metrics.
	GuestInstrs uint64  `json:"guest_instrs"`
	WallMS      float64 `json:"wall_ms"`
}

// Job is one admitted analysis job. Mutable state is guarded by the
// owning Server's mutex; progress counters are atomics written by the run
// goroutine and read lock-free by the monitoring surface.
type Job struct {
	ID    string
	Group string
	Spec  JobSpec
	Token string

	status   Status
	result   *JobResult
	cancel   func() // non-nil while running
	canceled bool   // cancel requested (any state)

	submitted time.Time
	started   time.Time
	finished  time.Time
	queueWait time.Duration

	progBlocks atomic.Uint64
	progInstrs atomic.Uint64
}

// Progress is a running job's live counters.
type Progress struct {
	Blocks uint64 `json:"blocks"`
	Instrs uint64 `json:"instrs"`
}

// JobView is the JSON rendering of a job's state.
type JobView struct {
	ID          string     `json:"id"`
	Group       string     `json:"group,omitempty"`
	Status      Status     `json:"status"`
	Spec        JobSpec    `json:"spec"`
	Token       string     `json:"token"`
	QueueWaitMS float64    `json:"queue_wait_ms"`
	Progress    Progress   `json:"progress"`
	Result      *JobResult `json:"result,omitempty"`
	Submitted   time.Time  `json:"submitted"`
	Started     *time.Time `json:"started,omitempty"`
	Finished    *time.Time `json:"finished,omitempty"`
}

// view renders the job; caller holds the server mutex.
func (j *Job) view() JobView {
	v := JobView{
		ID: j.ID, Group: j.Group, Status: j.status, Spec: j.Spec, Token: j.Token,
		QueueWaitMS: float64(j.queueWait) / float64(time.Millisecond),
		Progress: Progress{
			Blocks: j.progBlocks.Load(),
			Instrs: j.progInstrs.Load(),
		},
		Result:    j.result,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
