package serve

// Chaos-under-load soak: hundreds of concurrent jobs, a large fraction
// carrying -inject fault specs or guaranteed guest faults, pushed through a
// bounded queue small enough that submitters hit 429s and retry. The
// acceptance bar (ISSUE 7): the daemon never dies, /healthz stays green
// throughout, every failed job is classified and carries a tg1: replay
// token, token re-submission reproduces the crash byte-for-byte, and
// cancellation + drain complete within their deadlines.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

const soakJobs = 600

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s := newTestServer(t, Options{Workers: 8, QueueDepth: 48, JobTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// specFor mixes healthy runs, guest faults, injected host panics,
	// injected allocator/pool/steal/sched faults, and watchdog trips.
	specFor := func(i int) JobSpec {
		seed := uint64(i%13 + 1)
		switch i % 6 {
		case 0:
			return JobSpec{Prog: "task.c", Seed: seed}
		case 1:
			return JobSpec{Prog: "wildstore", Seed: seed}
		case 2:
			return JobSpec{Prog: "task.c", Seed: seed, Inject: "panic=40", InjectSeed: uint64(i%5 + 1)}
		case 3:
			return JobSpec{Prog: "task.c", Seed: seed, Inject: "pool=3", InjectSeed: uint64(i%7 + 1)}
		case 4:
			return JobSpec{Prog: "task.c", Seed: seed, Inject: "steal=2,sched=5", InjectSeed: uint64(i%3 + 1)}
		default:
			return JobSpec{Prog: "task.c", Seed: seed, MaxBlocks: 40}
		}
	}

	// Health watchdog: /healthz polled continuously while the storm runs.
	stopHealth := make(chan struct{})
	var healthFails atomic.Int64
	var healthChecks atomic.Int64
	go func() {
		for {
			select {
			case <-stopHealth:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil || resp.StatusCode != http.StatusOK {
				healthFails.Add(1)
			}
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			healthChecks.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Submission storm: 24 concurrent submitters, retrying on 429 — the
	// bounded queue sheds under this load by construction.
	var (
		mu     sync.Mutex
		ids    []string
		sheds  atomic.Int64
		submWG sync.WaitGroup
	)
	jobsCh := make(chan int)
	for w := 0; w < 24; w++ {
		submWG.Add(1)
		go func() {
			defer submWG.Done()
			for i := range jobsCh {
				body, _ := json.Marshal(specFor(i))
				for {
					resp, err := http.Post(ts.URL+"/jobs", "application/json",
						strings.NewReader(string(body)))
					if err != nil {
						t.Errorf("submit %d: %v", i, err)
						return
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						sheds.Add(1)
						if resp.Header.Get("Retry-After") == "" {
							t.Error("429 without Retry-After")
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusAccepted {
						msg, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						t.Errorf("submit %d: %d: %s", i, resp.StatusCode, msg)
						return
					}
					var sub submitResponse
					err = json.NewDecoder(resp.Body).Decode(&sub)
					resp.Body.Close()
					if err != nil || len(sub.Jobs) != 1 {
						t.Errorf("submit %d: decode: %v", i, err)
						return
					}
					mu.Lock()
					ids = append(ids, sub.Jobs[0].ID)
					mu.Unlock()
					break
				}
			}
		}()
	}
	for i := 0; i < soakJobs; i++ {
		jobsCh <- i
	}
	close(jobsCh)
	submWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(ids) != soakJobs {
		t.Fatalf("admitted %d jobs, want %d", len(ids), soakJobs)
	}

	// Cancel a handful mid-flight; they must settle promptly.
	cancelStart := time.Now()
	canceledIDs := []string{ids[10], ids[100], ids[300]}
	for _, id := range canceledIDs {
		if err := s.Cancel(id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
	}

	// Wait for the whole fleet to settle.
	settled := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			v, err := s.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.Status.Terminal() {
				break
			}
			if time.Now().After(settled) {
				t.Fatalf("job %s stuck in %s", id, v.Status)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, id := range canceledIDs {
		v, _ := s.Job(id)
		if v.Status != StatusCanceled && v.Status != StatusDone && v.Status != StatusFailed {
			t.Fatalf("canceled job %s ended %s", id, v.Status)
		}
	}
	if d := time.Since(cancelStart); d > 120*time.Second {
		t.Fatalf("settling took %v", d)
	}

	close(stopHealth)
	if healthFails.Load() > 0 {
		t.Fatalf("/healthz failed %d/%d probes during the storm",
			healthFails.Load(), healthChecks.Load())
	}
	if healthChecks.Load() == 0 {
		t.Fatal("health watchdog never ran")
	}

	// Every job ran once, and every failed job must be classified with a
	// known taxonomy and carry a replay token.
	known := map[string]bool{
		harness.TaxFault: true, harness.TaxPanic: true, harness.TaxTimeout: true,
		harness.TaxDeadlock: true, harness.TaxDivergence: true, harness.TaxError: true,
	}
	var failed []JobView
	counts := map[string]int{}
	for _, v := range s.Jobs("", "") {
		if v.Result != nil && v.Result.Attempts != 1 {
			t.Fatalf("job %s ran %d times, want once", v.ID, v.Result.Attempts)
		}
		switch v.Status {
		case StatusFailed:
			if v.Result == nil || !known[v.Result.Verdict] {
				t.Fatalf("failed job %s has no classified verdict: %+v", v.ID, v.Result)
			}
			if !strings.HasPrefix(v.Result.ReplayToken, "tg1:") {
				t.Fatalf("failed job %s carries no replay token", v.ID)
			}
			counts[v.Result.Verdict]++
			failed = append(failed, v)
		case StatusDone:
			counts["ok"]++
		case StatusCanceled:
			counts["canceled"]++
		default:
			t.Fatalf("job %s settled in unexpected state %s", v.ID, v.Status)
		}
	}
	t.Logf("soak outcome: %v, sheds=%d, health probes=%d", counts, sheds.Load(), healthChecks.Load())
	if counts["ok"] == 0 {
		t.Fatal("no job survived the storm (expected the healthy sixth to)")
	}
	if counts[harness.TaxFault] == 0 || counts[harness.TaxPanic] == 0 || counts[harness.TaxTimeout] == 0 {
		t.Fatalf("fault mix did not exercise the taxonomy: %v", counts)
	}

	// Replay verification: re-submitting a failed job's token reproduces
	// the crash byte-for-byte. (Watchdog failures are excluded: budgets are
	// run limits, not run identity, so tokens do not encode them.)
	reproduced := 0
	for _, v := range failed {
		if reproduced == 5 {
			break
		}
		if v.Result.Verdict == harness.TaxTimeout || v.Result.Crash == "" {
			continue
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"token":%q}`, v.Result.ReplayToken)))
		if err != nil {
			t.Fatal(err)
		}
		var sub submitResponse
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || len(sub.Jobs) != 1 {
			t.Fatalf("token resubmission: %v", err)
		}
		rv := await(t, s, sub.Jobs[0].ID, 60*time.Second)
		if rv.Status != StatusFailed || rv.Result.Crash != v.Result.Crash {
			t.Fatalf("token %s did not reproduce byte-for-byte:\n--- original (%s)\n%s\n--- replay (%s)\n%s",
				v.Result.ReplayToken, v.Result.Verdict, v.Result.Crash, rv.Status, rv.Result.Crash)
		}
		reproduced++
	}
	if reproduced == 0 {
		t.Fatal("no crash was replay-checked")
	}

	// Metrics surface agrees with what we watched happen.
	snap := s.MetricsSnapshot()
	if got := snap.Counter("serve_jobs_admitted_total"); got < soakJobs {
		t.Fatalf("admitted counter %d < %d", got, soakJobs)
	}
	if sheds.Load() > 0 && snap.Counter("serve_jobs_shed_total") == 0 {
		t.Fatal("shed counter does not reflect observed 429s")
	}
	if snap.Counter("serve_jobs_quarantined_total") == 0 {
		t.Fatal("quarantined counter never ticked")
	}

	// Graceful drain completes within its deadline.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainStart := time.Now()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(drainStart); d > 30*time.Second {
		t.Fatalf("drain took %v", d)
	}
	if s.Ready() {
		t.Fatal("drained server still ready")
	}
	if s.MetricsSnapshot().Gauge("serve_drain_seconds") <= 0 {
		t.Fatal("drain duration gauge not recorded")
	}
}
