// Package serve is the analysis-as-a-service layer: a fault-contained,
// long-running daemon core that accepts analysis jobs (program + tool +
// engine config + seed range + budgets), runs them on a bounded
// worker pool, and is robust by construction — per-job isolation through
// the harness supervisor, bounded-queue admission control that sheds load
// instead of growing without bound, automatic retry with exponential
// backoff + jitter for transient failures, context-based cancellation that
// interrupts a running guest within one timeslice, and graceful drain that
// persists queued work. A guest fault, host panic, watchdog trip or
// deadlock inside a job is classified, optionally verified by replay, and
// reported as that job's *result*; the server never dies with it.
//
// cmd/taskgrindd wraps this package in an HTTP/JSON binary; the HTTP
// surface itself lives here (Handler) so tests and benchmarks drive the
// daemon in-process.
package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dbi"
	"repro/internal/faultinject"
	"repro/internal/lulesh"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/tools/toolreg"
)

// JobSpec is one analysis job's complete configuration — the same fields a
// `tg1:` replay token carries, plus run budgets and daemon behavior. The
// zero value of every field is a sensible default (Normalize fills them),
// so `{"prog":"task.c"}` is a valid submission.
type JobSpec struct {
	Prog       string `json:"prog"`
	Tool       string `json:"tool,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Threads    int    `json:"threads,omitempty"`
	Engine     string `json:"engine,omitempty"`
	Inject     string `json:"inject,omitempty"`
	InjectSeed uint64 `json:"inject_seed,omitempty"`
	Lenient    bool   `json:"lenient,omitempty"`

	// Seeds > 1 turns the submission into a seed-range sweep: the server
	// expands it into Seeds jobs (seeds Seed..Seed+Seeds-1) sharing one
	// group, all riding the same worker pool; GET /groups/{id} aggregates
	// them into an explore.Outcome.
	Seeds int `json:"seeds,omitempty"`

	// LULESH proxy-app parameters (prog=lulesh only).
	LSize    int  `json:"ls,omitempty"`
	LIters   int  `json:"li,omitempty"`
	LTasksEl int  `json:"lte,omitempty"`
	LTasksNd int  `json:"ltn,omitempty"`
	LRacy    bool `json:"lracy,omitempty"`

	// Budgets. TimeoutMS falls back to the server's default job deadline
	// when zero; MaxBlocks/MaxInstrs are unlimited when zero.
	MaxBlocks uint64 `json:"max_blocks,omitempty"`
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`

	// Supervised drives the job through harness.Supervise: crashes must
	// reproduce under journal-verified replay before they are reported
	// (Result.Reproduced), and a host panic degrades to the IR oracle
	// instead of failing the job.
	Supervised bool `json:"supervised,omitempty"`
	// MaxRetries bounds automatic retries of transient failures for this
	// job; -1 disables retries, 0 uses the server default.
	MaxRetries int `json:"max_retries,omitempty"`
}

// Normalize fills defaulted fields in place, mirroring the CLI defaults so
// a job's replay token matches the token an equivalent `taskgrind`
// invocation prints.
func (sp *JobSpec) Normalize() {
	if sp.Prog == "" {
		sp.Prog = "task.c"
	}
	if sp.Tool == "" {
		sp.Tool = "taskgrind"
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Threads == 0 {
		sp.Threads = 4
	}
	if sp.Seeds <= 0 {
		sp.Seeds = 1
	}
	if sp.Prog == "lulesh" {
		if sp.LSize == 0 {
			sp.LSize = 8
		}
		if sp.LIters == 0 {
			sp.LIters = 2
		}
		if sp.LTasksEl == 0 {
			sp.LTasksEl = 4
		}
		if sp.LTasksNd == 0 {
			sp.LTasksNd = 4
		}
	}
}

// Validate rejects specs that could never run: unknown program, tool,
// engine or injection spec. Called after Normalize.
func (sp *JobSpec) Validate() error {
	if _, err := progs.Build(sp.Prog, sp.Lulesh()); err != nil {
		return err
	}
	if _, _, err := toolreg.Make(sp.Tool); err != nil {
		return err
	}
	if sp.Engine != "" && sp.Engine != dbi.EngineCompiled && sp.Engine != dbi.EngineIR {
		return fmt.Errorf("serve: unknown engine %q (compiled, ir)", sp.Engine)
	}
	if _, err := faultinject.ParseSpec(sp.Inject, sp.InjectSeed); err != nil {
		return err
	}
	if sp.MaxRetries < -1 {
		return fmt.Errorf("serve: max_retries %d out of range (-1 disables)", sp.MaxRetries)
	}
	return nil
}

// Lulesh bundles the spec's proxy-app parameters.
func (sp *JobSpec) Lulesh() lulesh.Params {
	return lulesh.Params{S: sp.LSize, TEL: sp.LTasksEl, TNL: sp.LTasksNd,
		Iters: sp.LIters, Racy: sp.LRacy}
}

// Config maps the spec onto the replay-token configuration. Equal specs
// produce equal tokens, and the token of a job equals the token the CLI
// would stamp on the same single run — the stable result currency shared
// by both front ends.
func (sp *JobSpec) Config() snapshot.Config {
	cfg := snapshot.Config{
		Prog: sp.Prog, Tool: sp.Tool, Seed: sp.Seed, Threads: sp.Threads,
		Engine: sp.Engine, Inject: sp.Inject, Lenient: sp.Lenient,
	}
	if sp.Inject != "" {
		cfg.InjectSeed = sp.InjectSeed
	}
	if sp.Prog == "lulesh" {
		cfg.LSize, cfg.LIters, cfg.LTasksEl, cfg.LTasksNd, cfg.LRacy =
			sp.LSize, sp.LIters, sp.LTasksEl, sp.LTasksNd, sp.LRacy
	}
	return cfg
}

// SpecFromToken decodes a replay token into a job spec — submitting a
// crash report's token re-runs (and byte-for-byte reproduces) the crash
// as a daemon job.
func SpecFromToken(tok string) (JobSpec, error) {
	cfg, err := snapshot.ParseToken(tok)
	if err != nil {
		return JobSpec{}, err
	}
	sp := JobSpec{
		Prog: cfg.Prog, Tool: cfg.Tool, Seed: cfg.Seed, Threads: cfg.Threads,
		Engine: cfg.Engine, Inject: cfg.Inject, InjectSeed: cfg.InjectSeed,
		Lenient: cfg.Lenient, LSize: cfg.LSize, LIters: cfg.LIters,
		LTasksEl: cfg.LTasksEl, LTasksNd: cfg.LTasksNd, LRacy: cfg.LRacy,
	}
	sp.Normalize()
	return sp, nil
}

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is executing the job.
	StatusRunning Status = "running"
	// StatusRetryWait: a transient failure is backing off before re-entering
	// the queue.
	StatusRetryWait Status = "retry-wait"
	// StatusDone: terminal, the analysis completed (reports may be > 0).
	StatusDone Status = "done"
	// StatusFailed: terminal, the final attempt ended in a classified
	// failure; Result.Verdict carries the taxonomy and Result.ReplayToken
	// reproduces it.
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
	// ScheduleSensitive flags a job whose retry attempts produced different
	// outcomes — the failure depends on something outside the replayable
	// configuration, so the replay token is the only stable currency.
	ScheduleSensitive bool `json:"schedule_sensitive,omitempty"`
	// Attempts counts executions, retries included.
	Attempts int `json:"attempts"`
	// GuestInstrs/WallMS are the surviving attempt's work metrics.
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

	status    Status
	attempts  int
	taxSeen   []string // per-attempt verdicts, for schedule-sensitivity
	result    *JobResult
	cancel    func() // non-nil while running
	canceled  bool   // cancel requested (any state)
	retryStop *time.Timer

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
	Attempts    int        `json:"attempts"`
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
		ID: j.ID, Group: j.Group, Status: j.status, Spec: j.Spec,
		Token: j.Token, Attempts: j.attempts,
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
