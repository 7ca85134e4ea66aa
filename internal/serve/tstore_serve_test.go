package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/store"
	"repro/internal/tstore"
)

// TestJobsShareTranslationStore: a seed-range sweep through the daemon
// translates the program roughly once — daemon workers resolve their
// translations from the shared store — and the store's counters surface
// through /metrics.
func TestJobsShareTranslationStore(t *testing.T) {
	cache := tstore.NewCache("")
	s := newTestServer(t, Options{Workers: 4, TCache: cache})
	jobs, err := s.Submit(JobSpec{Prog: "task.c", Seed: 1, Seeds: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		v := await(t, s, j.ID, 30*time.Second)
		if v.Status != StatusDone {
			t.Fatalf("job %s: status %s (result %+v)", j.ID, v.Status, v.Result)
		}
		if v.Result.Verdict != store.VerdictOK {
			t.Fatalf("job %s: verdict %q", j.ID, v.Result.Verdict)
		}
	}
	cs := cache.Stats()
	if cs.Stores != 1 {
		t.Fatalf("8 identical jobs opened %d stores, want 1", cs.Stores)
	}
	if cs.Puts == 0 || cs.Hits == 0 {
		t.Fatalf("store not exercised: %+v", cs)
	}
	// First-writer-wins: racing workers may translate the same block, but
	// the store keeps one unit per block — its size is one image's worth.
	if cs.Puts != uint64(cs.Units) {
		t.Fatalf("store grew %d times for %d units", cs.Puts, cs.Units)
	}
	// Warm jobs adopt far more than the one cold job translated.
	if cs.Hits < 4*uint64(cs.Units) {
		t.Fatalf("jobs adopted only %d blocks for a %d-unit store", cs.Hits, cs.Units)
	}
	snap := s.MetricsSnapshot()
	if got := snap.Counters["tstore_translations_total"]; got != cs.Puts {
		t.Fatalf("metrics report %d translations, store says %d", got, cs.Puts)
	}
}

// TestMetricsCountStoreBytes: a default server's translation store is
// uncapped, and /metrics still reports the host memory its units hold.
func TestMetricsCountStoreBytes(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	jobs, err := s.Submit(JobSpec{Prog: "task.c"})
	if err != nil {
		t.Fatal(err)
	}
	if v := await(t, s, jobs[0].ID, 30*time.Second); v.Status != StatusDone {
		t.Fatalf("job ended %s", v.Status)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["tstore_units"] == 0 || snap.Gauges["tstore_bytes"] <= 0 {
		t.Fatalf("/metrics: tstore_units %g, tstore_bytes %g", snap.Gauges["tstore_units"], snap.Gauges["tstore_bytes"])
	}
}
