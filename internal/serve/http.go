package serve

// The HTTP/JSON monitoring and submission surface. It lives in the library
// (not cmd/taskgrindd) so tests and benchmarks drive the daemon in-process
// through httptest.
//
//	GET  /healthz            liveness (contained job failures never flip it)
//	GET  /readyz             admission readiness (503 while draining)
//	POST /jobs               submit a spec, or {"token":"tg1:..."} to re-run
//	GET  /jobs               list jobs (?status=failed&group=g0001)
//	GET  /jobs/{id}          one job: status, progress, result
//	DELETE /jobs/{id}        cancel (also POST /jobs/{id}/cancel)
//	GET  /groups/{id}        sweep group: members + aggregated Outcome
//	GET  /metrics            obs-registry snapshot (JSON)

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/explore"
)

// submitRequest is the POST /jobs body: either a full spec or a replay
// token (which decodes into one).
type submitRequest struct {
	JobSpec
	ReplayTok string `json:"token,omitempty"`
}

// submitResponse acknowledges an admitted submission.
type submitResponse struct {
	Jobs  []JobView `json:"jobs"`
	Group string    `json:"group,omitempty"`
}

// groupView is the GET /groups/{id} rendering: the members plus their
// cross-seed aggregation, computed with the same explore statistics the
// CLI's `query agg` prints.
type groupView struct {
	Group   string       `json:"group"`
	Done    int          `json:"done"`
	Total   int          `json:"total"`
	Jobs    []JobView    `json:"jobs"`
	Outcome *outcomeView `json:"outcome,omitempty"`
}

// outcomeView is explore.Outcome with JSON tags.
type outcomeView struct {
	Tool          string  `json:"tool"`
	Seeds         int     `json:"seeds"`
	Counts        []int   `json:"counts"`
	Failed        []int   `json:"failed,omitempty"`
	Min           int     `json:"min"`
	Max           int     `json:"max"`
	Distinct      int     `json:"distinct"`
	DetectionRate float64 `json:"detection_rate"`
	Summary       string  `json:"summary"`
}

// Handler returns the daemon's HTTP surface over s.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Healthy() {
			http.Error(w, "stopped", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req submitRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		spec := req.JobSpec
		if req.ReplayTok != "" {
			var err error
			spec, err = explore.ParseToken(req.ReplayTok)
			if err != nil {
				http.Error(w, "bad token: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		jobs, err := s.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			// Shed with a hint: one job's default deadline is a fair guess
			// at when a slot frees up.
			w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.JobTimeout.Seconds())+1))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case errors.Is(err, ErrDraining):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := submitResponse{Jobs: make([]JobView, 0, len(jobs))}
		s.mu.Lock()
		for _, j := range jobs {
			resp.Jobs = append(resp.Jobs, j.view())
			resp.Group = j.Group
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, resp)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		views := s.Jobs(Status(r.URL.Query().Get("status")), r.URL.Query().Get("group"))
		writeJSON(w, http.StatusOK, views)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Job(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	cancel := func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Cancel(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		v, _ := s.Job(id)
		writeJSON(w, http.StatusOK, v)
	}
	mux.HandleFunc("DELETE /jobs/{id}", cancel)
	mux.HandleFunc("POST /jobs/{id}/cancel", cancel)
	mux.HandleFunc("GET /groups/{id}", func(w http.ResponseWriter, r *http.Request) {
		views, err := s.Group(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, groupSummary(r.PathValue("id"), views))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.MetricsSnapshot()
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
	})
	return mux
}

// groupSummary aggregates a sweep group's terminal members into an
// explore.Outcome (partial groups aggregate only once every member is
// terminal — a half-done sweep has no meaningful range statistics).
func groupSummary(id string, views []JobView) groupView {
	gv := groupView{Group: id, Total: len(views), Jobs: views}
	base := ^uint64(0)
	for _, v := range views {
		if v.Status.Terminal() {
			gv.Done++
		}
		if v.Spec.Seed < base {
			base = v.Spec.Seed
		}
	}
	if gv.Done < gv.Total || gv.Total == 0 {
		return gv
	}
	rs := make([]explore.SeedResult, 0, len(views))
	tool := ""
	for _, v := range views {
		tool = v.Spec.Tool
		r := explore.SeedResult{Seed: int(v.Spec.Seed-base) + 1}
		if v.Result != nil {
			r.Verdict = v.Result.Verdict
			r.Reports = v.Result.Reports
			r.Err = v.Result.Err
			r.Reproduced = v.Result.Reproduced
		} else {
			// Terminal without a result: canceled before running, or parked
			// at drain. Either way the seed did not survive.
			r.Verdict = string(v.Status)
		}
		rs = append(rs, r)
	}
	out := explore.Aggregate(tool, rs)
	gv.Outcome = &outcomeView{
		Tool: out.Tool, Seeds: out.Seeds, Counts: out.Counts, Failed: out.Failed,
		Min: out.Min, Max: out.Max, Distinct: out.Distinct,
		DetectionRate: out.DetectionRate, Summary: out.String(),
	}
	return gv
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
