package serve

// The daemon core: bounded job queue with admission control, worker pool,
// retry with exponential backoff + deterministic jitter, cancellation,
// graceful drain with queue-state persistence, and the robustness counters
// published through the obs registry.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/tstore"
)

// Sentinel admission errors; the HTTP layer maps them to 429/503.
var (
	// ErrQueueFull sheds a submission the bounded queue cannot hold.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining rejects submissions while the server drains.
	ErrDraining = errors.New("serve: draining, not admitting jobs")
	// ErrUnknownJob reports a job id that was never admitted.
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Options configures a Server. Zero values take the documented defaults.
type Options struct {
	// Workers bounds concurrently running jobs (default 4).
	Workers int
	// QueueDepth bounds admitted-but-not-running jobs (default 64);
	// submissions beyond it are shed with ErrQueueFull.
	QueueDepth int
	// MaxRetries bounds automatic retries of transient failures per job
	// (default 2); JobSpec.MaxRetries overrides per job.
	MaxRetries int
	// RetryBase is the first backoff delay (default 25ms); each retry
	// doubles it up to RetryMax (default 2s), plus up to 50% deterministic
	// jitter.
	RetryBase time.Duration
	RetryMax  time.Duration
	// JobTimeout is the default per-job wall budget when the spec carries
	// none (default 30s). It rides the job's context, so it also bounds
	// supervised replay/fallback attempts.
	JobTimeout time.Duration
	// DrainTimeout bounds Drain's wait for in-flight jobs before it
	// cancels them (default 30s).
	DrainTimeout time.Duration
	// StatePath, when set, persists still-queued jobs at drain time and
	// resumes them on the next Start.
	StatePath string
	// Record, when set, appends every job's run to the shared columnar
	// run store (the same store `taskgrind query` reads).
	Record *store.Writer
	// Seed drives the backoff jitter PRNG (default 1). Deterministic so
	// load tests are reproducible.
	Seed uint64
	// ProgressEvery is the job progress-tick cadence in timeslices
	// (default 64).
	ProgressEvery int
	// TCache shares one content-addressed translation cache across every
	// job the daemon runs: repeat jobs on the same program under the same
	// tool reuse each other's translations. Nil builds an uncapped
	// daemon-private cache.
	TCache *tstore.Cache
}

// withDefaults fills zero options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 64
	}
	if o.TCache == nil {
		o.TCache = tstore.NewCache("")
	}
	return o
}

// Server is the analysis daemon core. Create with New, launch workers with
// Start, stop with Drain (graceful) or Stop (immediate).
type Server struct {
	opts Options

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // admission order, for listing
	groups map[string][]*Job
	jobSeq int
	grpSeq int
	rng    uint64 // backoff jitter PRNG (xorshift64*)
	parked []JobSpec

	queue    chan *Job
	workers  sync.WaitGroup
	inflight sync.WaitGroup
	retryWG  sync.WaitGroup // pending backoff timers + their re-enqueues
	started  bool
	draining atomic.Bool

	// Robustness counters (satellite: published through the obs registry).
	admitted      atomic.Uint64
	shed          atomic.Uint64
	retried       atomic.Uint64
	quarantined   atomic.Uint64
	completed     atomic.Uint64
	canceledJobs  atomic.Uint64
	schedSens     atomic.Uint64
	resumed       atomic.Uint64
	running       atomic.Int64
	drainNanos    atomic.Int64
	queueWaitMax  atomic.Int64
	retriesBusy   atomic.Int64 // retries holding or waiting for a queue slot
	parkedAtDrain atomic.Uint64
	stateCorrupt  atomic.Uint64 // corrupt -state files quarantined at start
}

// New builds a server (workers not yet started).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*Job),
		groups: make(map[string][]*Job),
		rng:    opts.Seed | 1,
		queue:  make(chan *Job, opts.QueueDepth),
	}
}

// Start launches the worker pool and, when StatePath holds a persisted
// queue from a drained predecessor, resumes those jobs first.
func (s *Server) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("serve: already started")
	}
	s.started = true
	s.mu.Unlock()
	if err := s.resumeState(); err != nil {
		return err
	}
	for i := 0; i < s.opts.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return nil
}

// jitter draws the next PRNG value (xorshift64*, the vm scheduler's
// generator) — deterministic backoff jitter for reproducible load tests.
func (s *Server) jitter() uint64 {
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	return x * 2685821657736338717
}

// backoffFor computes the attempt'th retry delay: RetryBase doubled per
// prior retry, capped at RetryMax, plus up to 50% jitter. Caller holds
// s.mu (the jitter PRNG is mutex-guarded state).
func (s *Server) backoffFor(attempt int) time.Duration {
	d := s.opts.RetryBase << uint(attempt-1)
	if d > s.opts.RetryMax || d <= 0 {
		d = s.opts.RetryMax
	}
	return d + time.Duration(s.jitter()%uint64(d/2+1))
}

// Submit validates, normalizes and admits a spec. A Seeds>1 spec expands
// into one job per seed sharing a group; admission is all-or-nothing, so a
// sweep never half-enters a nearly-full queue. Returns ErrQueueFull (shed;
// callers should retry later) or ErrDraining.
func (s *Server) Submit(spec JobSpec) ([]*Job, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := spec.Seeds
	// Retries claim their slots under s.mu too (requeue), so every send
	// below finds room.
	if free := max(0, cap(s.queue)-len(s.queue)-int(s.retriesBusy.Load())); free < n {
		s.shed.Add(uint64(n))
		return nil, fmt.Errorf("%w: %d slot(s) free, %d needed", ErrQueueFull, free, n)
	}
	group := ""
	if n > 1 {
		s.grpSeq++
		group = fmt.Sprintf("g%04d", s.grpSeq)
	}
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		js := spec
		js.Seeds = 1
		js.Seed = spec.Seed + uint64(i)
		s.jobSeq++
		j := &Job{
			ID:        fmt.Sprintf("j%06d", s.jobSeq),
			Group:     group,
			Spec:      js,
			Token:     js.Token(),
			status:    StatusQueued,
			submitted: time.Now(),
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if group != "" {
			s.groups[group] = append(s.groups[group], j)
		}
		jobs = append(jobs, j)
		s.queue <- j // capacity checked above; sends are serialized by s.mu
	}
	s.admitted.Add(uint64(n))
	return jobs, nil
}

// worker pulls jobs until the server stops.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			if s.draining.Load() {
				s.park(j)
				continue
			}
			s.runJob(j)
		}
	}
}

// park records a job still queued at drain time for state persistence.
func (s *Server) park(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parkLocked(j)
}

// parkLocked parks under the caller's lock.
func (s *Server) parkLocked(j *Job) {
	if j.status.Terminal() {
		return
	}
	if j.canceled {
		j.status = StatusCanceled
		j.finished = time.Now()
		s.canceledJobs.Add(1)
		return
	}
	j.status = StatusParked
	j.finished = time.Now()
	s.parked = append(s.parked, j.Spec)
	s.parkedAtDrain.Add(1)
}

// Cancel stops a job: a queued job is marked and skipped by its worker, a
// backoff retry is aborted, and a running job's context is canceled — the
// guest stops within one timeslice.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	if j.status.Terminal() {
		s.mu.Unlock()
		return nil
	}
	j.canceled = true
	if j.retryStop != nil && j.retryStop.Stop() {
		// The backoff timer will never fire: finalize here.
		j.retryStop = nil
		s.retryWG.Done()
		j.status = StatusCanceled
		j.finished = time.Now()
		s.canceledJobs.Add(1)
	}
	cancel := j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// Job returns one job's view.
func (s *Server) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	return j.view(), nil
}

// Jobs lists every job's view in admission order; status/group filter when
// non-empty.
func (s *Server) Jobs(status Status, group string) []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if status != "" && j.status != status {
			continue
		}
		if group != "" && j.Group != group {
			continue
		}
		out = append(out, j.view())
	}
	return out
}

// Group returns a sweep group's member views, in seed order.
func (s *Server) Group(id string) ([]JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, ok := s.groups[id]
	if !ok {
		return nil, fmt.Errorf("%w: group %q", ErrUnknownJob, id)
	}
	out := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.view())
	}
	return out, nil
}

// Healthy reports liveness: true as long as the server's control loop
// exists. Contained job failures never flip it — that is the point.
func (s *Server) Healthy() bool { return s.ctx.Err() == nil }

// Ready reports whether submissions are currently admitted.
func (s *Server) Ready() bool { return !s.draining.Load() && s.ctx.Err() == nil }

// QueueDepth is the current number of admitted-but-not-running jobs.
func (s *Server) QueueDepth() int { return len(s.queue) }

// PublishMetrics copies the daemon's robustness counters into the registry
// — the same snapshot idiom as harness.CaptureMetrics, so `/metrics`, the
// daemon's -v dump, and tests all read one source of truth.
func (s *Server) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("serve_jobs_admitted_total").Set(s.admitted.Load())
	reg.Counter("serve_jobs_shed_total").Set(s.shed.Load())
	reg.Counter("serve_jobs_retried_total").Set(s.retried.Load())
	reg.Counter("serve_jobs_quarantined_total").Set(s.quarantined.Load())
	reg.Counter("serve_jobs_completed_total").Set(s.completed.Load())
	reg.Counter("serve_jobs_canceled_total").Set(s.canceledJobs.Load())
	reg.Counter("serve_jobs_schedule_sensitive_total").Set(s.schedSens.Load())
	reg.Counter("serve_jobs_resumed_total").Set(s.resumed.Load())
	reg.Counter("serve_jobs_parked_total").Set(s.parkedAtDrain.Load())
	reg.Gauge("serve_queue_depth").Set(float64(len(s.queue)))
	reg.Gauge("serve_jobs_running").Set(float64(s.running.Load()))
	reg.Gauge("serve_workers").Set(float64(s.opts.Workers))
	reg.Gauge("serve_retry_backlog").Set(float64(s.retriesBusy.Load()))
	reg.Gauge("serve_drain_seconds").Set(float64(s.drainNanos.Load()) / 1e9)
	reg.Gauge("serve_queue_wait_max_seconds").Set(float64(s.queueWaitMax.Load()) / 1e9)
	reg.Counter("serve_state_corrupt_total").Set(s.stateCorrupt.Load())
	cs := s.opts.TCache.Stats()
	reg.Gauge("tstore_stores").Set(float64(cs.Stores))
	reg.Gauge("tstore_units").Set(float64(cs.Units))
	reg.Gauge("tstore_bytes").Set(float64(cs.Bytes))
	reg.Counter("tstore_hits_total").Set(cs.Hits)
	reg.Counter("tstore_misses_total").Set(cs.Misses)
	reg.Counter("tstore_translations_total").Set(cs.Puts)
	reg.Counter("tstore_evictions_total").Set(cs.Evictions)
}

// MetricsSnapshot publishes into a fresh registry and freezes it.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	s.PublishMetrics(reg)
	return reg.Snapshot()
}

// Drain gracefully stops the server: stop admitting (Ready goes false),
// park still-queued jobs, wait for in-flight jobs up to the deadline (ctx
// deadline, else Options.DrainTimeout), cancel any that overstay, persist
// parked queue state, and stop the workers. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	if s.draining.Swap(true) {
		return nil
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.DrainTimeout)
		defer cancel()
	}
	// Park everything still queued. Workers racing us also park once the
	// draining flag is up; the channel hands each job to exactly one side.
	for {
		select {
		case j := <-s.queue:
			s.park(j)
			continue
		default:
		}
		break
	}
	// Park jobs waiting out a retry backoff: their timers are queued work
	// too. A timer we lose the race against re-enqueues into the draining
	// pool and parks itself (requeue checks the flag).
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.retryStop != nil && j.retryStop.Stop() {
			j.retryStop = nil
			s.retryWG.Done()
			s.parkLocked(j)
		}
	}
	s.mu.Unlock()
	// Wait for in-flight jobs; cancel stragglers at the deadline and wait
	// again — a canceled guest stops within one timeslice, so this second
	// wait is short.
	if !s.waitInflight(ctx.Done()) {
		s.cancelRunning()
		s.waitInflight(nil)
	}
	s.cancel() // stops workers and any blocked retry re-enqueues
	s.workers.Wait()
	s.retryWG.Wait() // in-flight re-enqueues park before state is persisted
	err := s.persistState()
	s.drainNanos.Store(int64(time.Since(start)))
	return err
}

// Stop terminates immediately: cancel everything, no parking, no
// persistence. Tests and defer paths use it.
func (s *Server) Stop() {
	s.draining.Store(true)
	s.cancelRunning()
	s.cancel()
	s.workers.Wait()
	s.retryWG.Wait()
}

// waitInflight waits for running jobs; done aborts the wait (false).
func (s *Server) waitInflight(done <-chan struct{}) bool {
	fin := make(chan struct{})
	go func() { s.inflight.Wait(); close(fin) }()
	select {
	case <-fin:
		return true
	case <-done:
		return false
	}
}

// cancelRunning cancels every running job's context.
func (s *Server) cancelRunning() {
	s.mu.Lock()
	var cancels []func()
	for _, j := range s.jobs {
		j.canceled = true
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		if j.retryStop != nil && j.retryStop.Stop() {
			j.retryStop = nil
			s.retryWG.Done()
			j.status = StatusCanceled
			j.finished = time.Now()
			s.canceledJobs.Add(1)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// stateFile is the persisted queue format (StatePath).
type stateFile struct {
	SavedAt time.Time `json:"saved_at"`
	Queued  []JobSpec `json:"queued"`
}

// persistState writes parked specs to StatePath (removing a stale file
// when nothing is parked).
func (s *Server) persistState() error {
	if s.opts.StatePath == "" {
		return nil
	}
	s.mu.Lock()
	parked := append([]JobSpec(nil), s.parked...)
	s.mu.Unlock()
	if len(parked) == 0 {
		err := os.Remove(s.opts.StatePath)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		return nil
	}
	data, err := json.MarshalIndent(stateFile{SavedAt: time.Now().UTC(), Queued: parked}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.opts.StatePath, append(data, '\n'), 0o644)
}

// resumeState re-admits a drained predecessor's persisted queue.
func (s *Server) resumeState() error {
	if s.opts.StatePath == "" {
		return nil
	}
	data, err := os.ReadFile(s.opts.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		// A damaged park file must never wedge a fleet restart: quarantine
		// it (the bytes stay on disk for a human to inspect) and start
		// empty. The parked jobs are lost — their submitters see a timeout
		// and resubmit — which beats a daemon that cannot boot.
		quarantine := s.opts.StatePath + ".corrupt"
		if rerr := os.Rename(s.opts.StatePath, quarantine); rerr != nil {
			// Even the rename failing must not block startup; drop the
			// file's claim on us and move on.
			quarantine = s.opts.StatePath + " (rename failed: " + rerr.Error() + ")"
		}
		s.stateCorrupt.Add(1)
		fmt.Fprintf(os.Stderr, "serve: corrupt state file quarantined to %s: %v\n", quarantine, err)
		return nil
	}
	for _, spec := range st.Queued {
		if _, err := s.Submit(spec); err != nil {
			return fmt.Errorf("serve: resume queued job: %w", err)
		}
		s.resumed.Add(1)
	}
	if err := os.Remove(s.opts.StatePath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// QueueWaits returns every started job's queue wait — the monitoring basis
// for the serve benchmark's p99 figure.
func (s *Server) QueueWaits() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Duration, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; !j.started.IsZero() {
			out = append(out, j.queueWait)
		}
	}
	return out
}

// Percentile computes the p'th percentile (0..100, nearest-rank) of ds.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ { // insertion sort: n is small
		for k := i; k > 0 && sorted[k] < sorted[k-1]; k-- {
			sorted[k], sorted[k-1] = sorted[k-1], sorted[k]
		}
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
