package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/obs/store"
)

// newTestServer starts a server and stops it at cleanup.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// await polls until j reaches a terminal state.
func await(t *testing.T, s *Server, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v", id, v.Status, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	jobs, err := s.Submit(JobSpec{Prog: "task.c", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := await(t, s, jobs[0].ID, 30*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("status %s, want done (result %+v)", v.Status, v.Result)
	}
	if v.Result.Verdict != store.VerdictOK {
		t.Fatalf("verdict %q, want ok", v.Result.Verdict)
	}
	if v.Result.Reports == 0 {
		t.Fatal("task.c seed 2 should report the Listing 4 race")
	}
	if !strings.Contains(v.Result.Output, "==") {
		t.Fatalf("no rendered report in output:\n%s", v.Result.Output)
	}
	if v.Token == "" || !strings.HasPrefix(v.Token, "tg1:") {
		t.Fatalf("job carries no replay token: %q", v.Token)
	}
	if v.Progress.Instrs == 0 {
		t.Fatal("no progress counters ticked")
	}
}

// TestFailureContained: a wild-pointer crash is the job's result, not the
// server's problem.
func TestFailureContained(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	jobs, err := s.Submit(JobSpec{Prog: "wildstore"})
	if err != nil {
		t.Fatal(err)
	}
	v := await(t, s, jobs[0].ID, 30*time.Second)
	if v.Status != StatusFailed {
		t.Fatalf("status %s, want failed", v.Status)
	}
	if v.Result.Verdict != harness.TaxFault {
		t.Fatalf("verdict %q, want fault", v.Result.Verdict)
	}
	if !strings.Contains(v.Result.Crash, "Invalid write") &&
		!strings.Contains(v.Result.Crash, "==") {
		t.Fatalf("no rendered crash report:\n%s", v.Result.Crash)
	}
	if !strings.HasPrefix(v.Result.ReplayToken, "tg1:") {
		t.Fatalf("failed job carries no replay token: %q", v.Result.ReplayToken)
	}
	if !s.Healthy() {
		t.Fatal("a contained job failure flipped server health")
	}
	snap := s.MetricsSnapshot()
	if got := snap.Counter("serve_jobs_quarantined_total"); got != 1 {
		t.Fatalf("quarantined counter %d, want 1", got)
	}
}

// TestTokenResubmissionReproduces: a failed job's replay token, submitted
// as a new job, reproduces the crash report byte for byte.
func TestTokenResubmissionReproduces(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	jobs, err := s.Submit(JobSpec{Prog: "wildstore", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v1 := await(t, s, jobs[0].ID, 30*time.Second)
	if v1.Status != StatusFailed {
		t.Fatalf("status %s, want failed", v1.Status)
	}
	spec, err := explore.ParseToken(v1.Result.ReplayToken)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := await(t, s, again[0].ID, 30*time.Second)
	if v2.Result.Crash != v1.Result.Crash {
		t.Fatalf("replayed crash differs:\n--- original\n%s\n--- replay\n%s",
			v1.Result.Crash, v2.Result.Crash)
	}
	if v2.Result.ReplayToken != v1.Result.ReplayToken {
		t.Fatalf("token drifted across resubmission: %q vs %q",
			v1.Result.ReplayToken, v2.Result.ReplayToken)
	}
}

// TestOneRunPerVerdict: every failure verdict is final on the job's one
// run. An injected host panic, a block-budget trip, a wall-clock trip and
// a guest fault each end failed with their taxonomy after one execution,
// and /metrics carries no retry metric.
func TestOneRunPerVerdict(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	cases := []struct {
		name string
		spec JobSpec
		tax  string
	}{
		{"panic", JobSpec{Prog: "task.c", Seed: 2, Inject: "panic=40", InjectSeed: 7}, harness.TaxPanic},
		{"max_blocks", JobSpec{Prog: "task.c", MaxBlocks: 40}, harness.TaxTimeout},
		{"timeout_ms", JobSpec{Prog: "lulesh", LIters: 200, TimeoutMS: 2}, harness.TaxTimeout},
		{"fault", JobSpec{Prog: "wildstore"}, harness.TaxFault},
	}
	ids := make([]string, len(cases))
	for i, c := range cases {
		jobs, err := s.Submit(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ids[i] = jobs[0].ID
	}
	for i, c := range cases {
		v := await(t, s, ids[i], 60*time.Second)
		if v.Status != StatusFailed || v.Result.Verdict != c.tax || v.Result.Attempts != 1 {
			t.Fatalf("%s: status %s, result %+v; want failed, verdict %s, 1 attempt",
				c.name, v.Status, v.Result, c.tax)
		}
	}
	if got := s.MetricsSnapshot().Counter("serve_jobs_quarantined_total"); got != uint64(len(cases)) {
		t.Fatalf("quarantined counter %d, want %d", got, len(cases))
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "serve_jobs_quarantined_total") {
		t.Fatalf("/metrics lacks the quarantined counter:\n%s", body)
	}
	for _, gone := range []string{"serve_jobs_retried_total", "serve_jobs_schedule_sensitive_total", "serve_retry_backlog"} {
		if strings.Contains(string(body), gone) {
			t.Fatalf("/metrics still lists %s:\n%s", gone, body)
		}
	}
}

// TestRetryBackoffExhaustion: a deterministic host panic leaves no retry
// budget to exhaust and no backoff to wait out. The job fails on its one
// run, and resubmitting its replay token fails the same way with the same
// crash report, which is all a second run of the job could show.
func TestRetryBackoffExhaustion(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	jobs, err := s.Submit(JobSpec{
		Prog: "task.c", Seed: 2, Inject: "panic=40", InjectSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := await(t, s, jobs[0].ID, 30*time.Second)
	if v1.Status != StatusFailed || v1.Result.Verdict != harness.TaxPanic || v1.Result.Attempts != 1 {
		t.Fatalf("status %s, result %+v; want failed, verdict panic, 1 attempt", v1.Status, v1.Result)
	}
	if v1.Result.Crash == "" {
		t.Fatal("panicked job carries no crash report")
	}
	spec, err := explore.ParseToken(v1.Result.ReplayToken)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := await(t, s, again[0].ID, 30*time.Second)
	if v2.Status != StatusFailed || v2.Result.Verdict != harness.TaxPanic || v2.Result.Attempts != 1 {
		t.Fatalf("resubmitted token: status %s, result %+v; want failed, verdict panic, 1 attempt",
			v2.Status, v2.Result)
	}
	if v2.Result.Crash != v1.Result.Crash {
		t.Fatalf("resubmitted panic differs:\n--- original\n%s\n--- resubmitted\n%s",
			v1.Result.Crash, v2.Result.Crash)
	}
}

// TestRetryDisabled: the daemon never re-runs a job, so a wall-clock
// timeout is final like every other verdict. A re-run is the submitter's
// to ask for: the job's token carries no budget, so resubmitting it runs
// the job again under the daemon's own job timeout, where it completes.
func TestRetryDisabled(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	jobs, err := s.Submit(JobSpec{Prog: "lulesh", LIters: 50, TimeoutMS: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1 := await(t, s, jobs[0].ID, 60*time.Second)
	if v1.Status != StatusFailed || v1.Result.Verdict != harness.TaxTimeout || v1.Result.Attempts != 1 {
		t.Fatalf("status %s, result %+v; want failed, verdict timeout, 1 attempt", v1.Status, v1.Result)
	}
	spec, err := explore.ParseToken(v1.Result.ReplayToken)
	if err != nil {
		t.Fatal(err)
	}
	if spec.TimeoutMS != 0 {
		t.Fatalf("token %s carries the 2 ms budget", v1.Result.ReplayToken)
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2 := await(t, s, again[0].ID, 60*time.Second)
	if v2.Status != StatusDone || v2.Result.Verdict != store.VerdictOK || v2.Result.Attempts != 1 {
		t.Fatalf("resubmitted token: status %s, result %+v; want done, verdict ok, 1 attempt",
			v2.Status, v2.Result)
	}
}

// TestSupervisedFallback: a supervised job survives an injected engine
// panic by degrading to the IR oracle, and still reports the race.
func TestSupervisedFallback(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	jobs, err := s.Submit(JobSpec{
		Prog: "task.c", Seed: 2, Inject: "panic=40", InjectSeed: 7, Supervised: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := await(t, s, jobs[0].ID, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("status %s, want done (result %+v)", v.Status, v.Result)
	}
	if !v.Result.FellBack {
		t.Fatal("job did not record the IR-oracle fallback")
	}
	if v.Result.Reports == 0 {
		t.Fatal("fallback run lost the race report")
	}
}

// TestQueueFullSheds: submissions beyond the bounded queue are shed, with
// the shed counter ticking.
func TestQueueFullSheds(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	// Occupy the single worker with a long job first so fillers stay queued.
	long, err := s.Submit(JobSpec{Prog: "lulesh", LIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, long[0].ID)
	if _, err := s.Submit(JobSpec{Prog: "task.c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Prog: "task.c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Prog: "task.c"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission: got %v, want ErrQueueFull", err)
	}
	if got := s.MetricsSnapshot().Counter("serve_jobs_shed_total"); got == 0 {
		t.Fatal("shed counter did not tick")
	}
	if err := s.Cancel(long[0].ID); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedSweepRejected: a sweep of more seeds than the whole queue
// holds can never be admitted, so it is an invalid submission naming the
// seeds and the depth (HTTP 400), not a shed one (429), and the shed
// counter does not count it. A sweep that fills the empty queue exactly is
// admitted.
func TestOversizedSweepRejected(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, err := s.Submit(JobSpec{Prog: "task.c", Seeds: 5})
	if err == nil || errors.Is(err, ErrQueueFull) || !strings.Contains(err.Error(), "seeds 5") ||
		!strings.Contains(err.Error(), "queue depth 4") {
		t.Fatalf("Submit of 5 seeds at depth 4: got %v, want an error naming seeds 5 and queue depth 4", err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"prog":"task.c","seeds":5}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "seeds 5") ||
		resp.Header.Get("Retry-After") != "" {
		t.Fatalf("POST 5 seeds at depth 4: %d (Retry-After %q) %s, want 400 naming seeds",
			resp.StatusCode, resp.Header.Get("Retry-After"), msg)
	}
	snap := s.MetricsSnapshot()
	if shed, admitted := snap.Counter("serve_jobs_shed_total"), snap.Counter("serve_jobs_admitted_total"); shed != 0 || admitted != 0 {
		t.Fatalf("oversized sweeps counted: shed %d, admitted %d, want 0 and 0", shed, admitted)
	}
	jobs, err := s.Submit(JobSpec{Prog: "task.c", Seeds: 4})
	if err != nil || len(jobs) != 4 {
		t.Fatalf("Submit of 4 seeds at depth 4: %d jobs, %v", len(jobs), err)
	}
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusRunning {
			return
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s finished (%s) before it could be observed running", id, v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelRunningJob: cancelling a running guest interrupts it promptly
// (context checked per timeslice) and classifies it canceled.
func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	jobs, err := s.Submit(JobSpec{Prog: "lulesh", LIters: 200, TimeoutMS: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, jobs[0].ID)
	start := time.Now()
	if err := s.Cancel(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	v := await(t, s, jobs[0].ID, 10*time.Second)
	if v.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", v.Status)
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("cancellation took %v", wait)
	}
	if got := s.MetricsSnapshot().Counter("serve_jobs_canceled_total"); got != 1 {
		t.Fatalf("canceled counter %d, want 1", got)
	}
}

// TestSweepGroupAggregates: a seeds>1 submission fans out into a group
// whose aggregation matches an in-process explore of the same seeds.
func TestSweepGroupAggregates(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	jobs, err := s.Submit(JobSpec{Prog: "task.c", Seeds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 || jobs[0].Group == "" {
		t.Fatalf("expected 6 grouped jobs, got %d (group %q)", len(jobs), jobs[0].Group)
	}
	for _, j := range jobs {
		await(t, s, j.ID, 60*time.Second)
	}
	views, err := s.Group(jobs[0].Group)
	if err != nil {
		t.Fatal(err)
	}
	gv := groupSummary(jobs[0].Group, views)
	if gv.Outcome == nil {
		t.Fatal("terminal group did not aggregate")
	}
	if gv.Outcome.Seeds != 6 {
		t.Fatalf("aggregated %d seeds, want 6", gv.Outcome.Seeds)
	}
	if gv.Outcome.DetectionRate == 0 {
		t.Fatal("no seed detected the Listing 4 race")
	}
}

// TestDrainPersistsAndResumes: drain parks queued jobs into the state
// file; a new server on the same path resumes them.
func TestDrainPersistsAndResumes(t *testing.T) {
	state := filepath.Join(t.TempDir(), "queue.json")
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 8, StatePath: state})
	long, err := s.Submit(JobSpec{Prog: "lulesh", LIters: 100, TimeoutMS: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, long[0].ID)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(JobSpec{Prog: "task.c", Seed: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("drained server still admits")
	}
	if _, err := s.Submit(JobSpec{Prog: "task.c"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission: got %v, want ErrDraining", err)
	}
	data, err := os.ReadFile(state)
	if err != nil {
		t.Fatalf("no persisted queue state: %v", err)
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Queued) != 3 {
		t.Fatalf("persisted %d jobs, want 3:\n%s", len(st.Queued), data)
	}
	if got := s.MetricsSnapshot().Gauge("serve_drain_seconds"); got <= 0 {
		t.Fatal("drain duration gauge not recorded")
	}
	// Builds whose job specs had delivery and retry-budget fields parked
	// jobs with "delivery": "batched" and "max_retries"; such a file must
	// resume all the same.
	data = bytes.ReplaceAll(data, []byte(`"prog": `), []byte(`"delivery": "batched", "max_retries": 1, "prog": `))
	if n, m := bytes.Count(data, []byte(`"delivery"`)), bytes.Count(data, []byte(`"max_retries"`)); n != 3 || m != 3 {
		t.Fatalf("older park file carries %d delivery and %d max_retries fields, want 3 each:\n%s", n, m, data)
	}
	if err := os.WriteFile(state, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{Workers: 2, StatePath: state})
	if got := s2.MetricsSnapshot().Counter("serve_jobs_resumed_total"); got != 3 {
		t.Fatalf("resumed %d jobs, want 3", got)
	}
	for _, v := range s2.Jobs("", "") {
		if v := await(t, s2, v.ID, 60*time.Second); v.Status != StatusDone {
			t.Fatalf("resumed job %s ended %s", v.ID, v.Status)
		}
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Fatal("state file not consumed on resume")
	}
}

// TestCorruptStateQuarantined: a damaged park file must never wedge a
// fleet restart — the daemon quarantines it (rename to <state>.corrupt),
// counts it, and starts empty and ready.
func TestCorruptStateQuarantined(t *testing.T) {
	state := filepath.Join(t.TempDir(), "queue.json")
	if err := os.WriteFile(state, []byte("{\"queued\": [truncated gar"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 1, StatePath: state})
	if !s.Ready() {
		t.Fatal("server with corrupt state did not come up ready")
	}
	if got := s.MetricsSnapshot().Counter("serve_state_corrupt_total"); got != 1 {
		t.Fatalf("serve_state_corrupt_total = %d, want 1", got)
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Fatal("corrupt state file still in place")
	}
	data, err := os.ReadFile(state + ".corrupt")
	if err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if !strings.Contains(string(data), "truncated gar") {
		t.Fatal("quarantined copy does not preserve the damaged bytes")
	}
	// The daemon still works: submit and complete a job.
	jobs, err := s.Submit(JobSpec{Prog: "task.c"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, s, jobs[0].ID, 60*time.Second); v.Status != StatusDone {
		t.Fatalf("job after quarantine ended %s", v.Status)
	}
}

// TestRecordedJobsLandInStore: with Options.Record, every job's run —
// including crashes — appears in the shared run store.
func TestRecordedJobsLandInStore(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 2, Record: w})
	a, err := s.Submit(JobSpec{Prog: "task.c", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(JobSpec{Prog: "wildstore"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, a[0].ID, 30*time.Second)
	await(t, s, b[0].ID, 30*time.Second)
	s.Stop()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	headers, err := r.Runs(store.Q{})
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(headers))
	}
	byProg := map[string]store.RunHeader{}
	for _, h := range headers {
		byProg[h.Prog] = h
	}
	if h := byProg["wildstore"]; h.Verdict != harness.TaxFault {
		t.Fatalf("wildstore recorded verdict %q, want fault", h.Verdict)
	}
	if h := byProg["task.c"]; h.Verdict != store.VerdictOK || h.Reports == 0 {
		t.Fatalf("task.c recorded verdict %q reports %d", h.Verdict, h.Reports)
	}
}

// TestHTTPSurface drives the whole lifecycle through the HTTP handler.
func TestHTTPSurface(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz %d: %s", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz %d: %s", code, body)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"prog":"task.c","seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(sub.Jobs) != 1 {
		t.Fatalf("submit: %d, %d jobs", resp.StatusCode, len(sub.Jobs))
	}
	id := sub.Jobs[0].ID
	await(t, s, id, 30*time.Second)
	code, body := get("/jobs/" + id)
	if code != http.StatusOK || !strings.Contains(body, `"status": "done"`) {
		t.Fatalf("/jobs/%s %d:\n%s", id, code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "serve_jobs_admitted_total") {
		t.Fatalf("/metrics %d:\n%s", code, body)
	}
	if code, _ := get("/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", code)
	}

	// Bad submissions are 400s, not daemon failures.
	for _, bad := range []string{`{"prog":"no-such-prog"}`, `{"token":"tg1:!!!"}`, `not json`} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad submission %q: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestHTTPRejectsExtend: superblock extension, the delivery option, the
// taskgrind-par tool, the timeslice setting, the engine setting (the IR
// engine in a token), the translation store's storage fault kinds and the
// per-job retry budget were removed, so a submission that still asks for
// any of them — as a spec field or inside a replay token — is a 400 naming
// it, never a job run under another configuration.
func TestHTTPRejectsExtend(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	token := func(setting string) string {
		return `{"token":"tg1:` + base64.RawURLEncoding.EncodeToString([]byte(setting+"&prog=task.c&seed=1")) + `"}`
	}
	for _, c := range []struct{ body, field string }{
		{`{"prog":"task.c","extend":64}`, "extend"},
		{token("extend=64"), "extend"},
		{`{"prog":"task.c","delivery":"batched"}`, "delivery"},
		{token("delivery=per-event"), "delivery=per-event"},
		{`{"prog":"task.c","tool":"taskgrind-par"}`, "taskgrind-par"},
		{token("tool=taskgrind-par"), "taskgrind-par"},
		{`{"prog":"task.c","slice":7}`, "slice"},
		{token("slice=7"), "slice=7"},
		{`{"prog":"task.c","engine":"compiled"}`, "engine"},
		{token("engine=ir"), "engine=ir"},
		{`{"prog":"task.c","inject":"tsread=2"}`, "tsread"},
		{token("inject=tsread%3D2"), "tsread"},
		{`{"prog":"task.c","max_retries":1}`, "max_retries"},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.field) {
			t.Fatalf("POST %s: %d %s, want 400 naming %s", c.body, resp.StatusCode, msg, c.field)
		}
	}
}

// TestHTTPShedsWith429: an overflowing queue answers 429 + Retry-After.
func TestHTTPShedsWith429(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	long, err := s.Submit(JobSpec{Prog: "lulesh", LIters: 50, TimeoutMS: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, long[0].ID)
	if _, err := s.Submit(JobSpec{Prog: "task.c"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"prog":"task.c"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	_ = s.Cancel(long[0].ID)
}
