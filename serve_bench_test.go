package repro

// Daemon throughput benchmark and regression gate. BenchmarkServe pushes a
// stream of small analysis jobs through an in-process serve.Server — the
// same worker pool and admission control taskgrindd runs — and records
// jobs/sec plus the p99 queue wait into the "serve" section of
// $PERF_BENCH_OUT. TestServeThroughputRegression (PERF_GUARD=1) re-measures
// against the recorded baseline, so an accidental serialization in the
// daemon's hot path (a lock held across a run, a per-job rebuild of shared
// state) fails `make check`.

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
)

// serveJobsPerSec runs n small jobs (a task.c seed sweep) through a fresh
// server and returns jobs/sec and the p99 queue wait.
func serveJobsPerSec(tb testing.TB, n, workers int) (jobsPerSec float64, p99Wait time.Duration) {
	tb.Helper()
	s := serve.New(serve.Options{Workers: workers, QueueDepth: n + 8})
	if err := s.Start(); err != nil {
		tb.Fatal(err)
	}
	defer s.Stop()
	start := time.Now()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		jobs, err := s.Submit(serve.JobSpec{Prog: "task.c", Seed: uint64(i%31 + 1)})
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, jobs[0].ID)
	}
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			v, err := s.Job(id)
			if err != nil {
				tb.Fatal(err)
			}
			if v.Status.Terminal() {
				if v.Status != serve.StatusDone {
					tb.Fatalf("bench job %s ended %s: %+v", id, v.Status, v.Result)
				}
				break
			}
			if time.Now().After(deadline) {
				tb.Fatalf("bench job %s stuck in %s", id, v.Status)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wall := time.Since(start).Seconds()
	return float64(n) / wall, serve.Percentile(s.QueueWaits(), 99)
}

func BenchmarkServe(b *testing.B) {
	const workers = 8
	jps, p99 := 0.0, time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jps, p99 = serveJobsPerSec(b, 200, workers)
	}
	b.StopTimer()
	b.ReportMetric(jps, "jobs/sec")
	b.ReportMetric(float64(p99)/1e6, "p99-queue-wait-ms")
	writePerfSection(b, "serve", struct {
		Suite          string  `json:"suite"`
		Jobs           int     `json:"jobs"`
		Workers        int     `json:"workers"`
		JobsPerSec     float64 `json:"jobs_per_sec"`
		P99QueueWaitMS float64 `json:"p99_queue_wait_ms"`
		Criterion      string  `json:"criterion"`
		Timestamp      string  `json:"timestamp"`
	}{
		Suite: "task.c-seed-sweep", Jobs: 200, Workers: workers,
		JobsPerSec: jps, P99QueueWaitMS: float64(p99) / 1e6,
		Criterion: "jobs_per_sec is end-to-end daemon throughput on 200 " +
			"small jobs (submit through terminal state, workers=8); " +
			"p99_queue_wait_ms is the 99th-percentile admission-to-start " +
			"wait under that load.",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	})
}

// TestServeThroughputRegression is the serve section of the PERF_GUARD
// gate: re-measure daemon throughput (best of three, so machine noise
// cannot fail it) and fail if it drops below 1/1.5 of the recorded
// baseline.
func TestServeThroughputRegression(t *testing.T) {
	if os.Getenv("PERF_GUARD") != "1" {
		t.Skip("set PERF_GUARD=1 to run the serve-throughput regression gate")
	}
	path := os.Getenv("PERF_BENCH_OUT")
	if path == "" {
		path = "BENCH_perf.json"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no baseline (run `make bench-serve` first): %v", err)
	}
	var doc struct {
		Serve struct {
			JobsPerSec float64 `json:"jobs_per_sec"`
		} `json:"serve"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if doc.Serve.JobsPerSec == 0 {
		t.Fatalf("no serve baseline in %s (run `make bench-serve`)", path)
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		jps, _ := serveJobsPerSec(t, 100, 8)
		if jps > best {
			best = jps
		}
	}
	floor := doc.Serve.JobsPerSec / 1.5
	t.Logf("serve throughput: measured best %.1f jobs/sec, baseline %.1f, floor %.1f",
		best, doc.Serve.JobsPerSec, floor)
	if best < floor {
		t.Errorf("daemon throughput regressed: %.1f jobs/sec < floor %.1f (baseline %.1f)",
			best, floor, doc.Serve.JobsPerSec)
	}
}

// TestServeLoad is the `make loadtest` entry: thousands of small
// concurrent jobs through one daemon, all of which must settle with the
// server healthy. It complements the chaos soak (internal/serve), which
// mixes fault injection in; this one is pure volume.
func TestServeLoad(t *testing.T) {
	if os.Getenv("LOADTEST") != "1" && testing.Short() {
		t.Skip("set LOADTEST=1 (or run without -short) for the volume load test")
	}
	n := 2000
	if os.Getenv("LOADTEST") == "" {
		n = 500 // default `go test ./...` keeps the volume moderate
	}
	s := serve.New(serve.Options{Workers: 8, QueueDepth: 64})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		for {
			jobs, err := s.Submit(serve.JobSpec{Prog: "task.c", Seed: uint64(i%97 + 1)})
			if errors.Is(err, serve.ErrQueueFull) {
				time.Sleep(time.Millisecond) // backpressure: retry later
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, jobs[0].ID)
			break
		}
	}
	deadline := time.Now().Add(180 * time.Second)
	done := 0
	for _, id := range ids {
		for {
			v, err := s.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.Status.Terminal() {
				if v.Status != serve.StatusDone {
					t.Fatalf("load job %s ended %s: %+v", id, v.Status, v.Result)
				}
				done++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("load job %s stuck in %s (%d/%d done)", id, v.Status, done, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !s.Healthy() {
		t.Fatal("server unhealthy after load")
	}
	snap := s.MetricsSnapshot()
	if got := snap.Counter("serve_jobs_completed_total"); got != uint64(n) {
		t.Fatalf("completed counter %d, want %d", got, n)
	}
	t.Logf("load: %d jobs done, max queue wait %s", done,
		time.Duration(int64(snap.Gauge("serve_queue_wait_max_seconds")*1e9)))
}
