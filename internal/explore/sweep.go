package explore

// Sweep recording: every seed's run — spans, instants, profile samples,
// final counters, verdict and replay token — lands in one shared columnar
// run store, so a 1000-seed sweep becomes a queryable dataset instead of a
// pile of per-run files. Rebuild reconstructs the in-process Outcome from
// the recorded headers bit-identically; `taskgrind query agg` is built on
// it.

import (
	"sort"

	"repro/internal/gbuild"
	"repro/internal/obs/store"
	"repro/internal/tstore"
)

// Opts are a sweep's resources beyond its recipe.
type Opts struct {
	// Workers bounds concurrent machines (0 = 4).
	Workers int
	// Record, when non-nil, records every seed's run — including
	// quarantined crashes — into the store.
	Record *store.Writer
	// TStore shares translations across the sweep's seeds: every seed
	// runs the same image under the same tool, so the whole sweep costs
	// roughly one seed's worth of translation work. Nil builds a
	// sweep-private cache (amortization on by default); pass an explicit
	// cache to share it beyond the sweep.
	TStore *tstore.Cache
}

// RunOpts explores seeds 1..nseeds of sp's configuration (sp.Seed is
// replaced by each seed) on fresh images from build, which must return a
// new builder per call (builders are single-link). Every seed is one
// Execute. Crashing, hung or otherwise failing seeds are quarantined into
// Outcome.Failed/Failures rather than aborting the sweep; only setup errors
// (unknown tool, unbuildable program, a failed recording) fail the call.
func RunOpts(build func() *gbuild.Builder, sp Spec, nseeds int, o Opts) (Outcome, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	env := Env{TStore: o.TStore, Record: o.Record}
	if env.TStore == nil {
		env.TStore = tstore.NewCache("")
	}
	out := Outcome{Tool: sp.Tool, Seeds: nseeds, Counts: make([]int, nseeds)}
	errs := make([]error, nseeds)
	fails := make([]*Failure, nseeds)
	done := make(chan int, workers)
	sem := make(chan struct{}, workers)
	for i := 0; i < nseeds; i++ {
		go func(i int) {
			defer func() { done <- i }()
			sem <- struct{}{}
			defer func() { <-sem }()
			im, err := build().Link()
			if err != nil {
				errs[i] = err
				return
			}
			seed := sp
			seed.Seed = uint64(i + 1)
			run, err := Execute(nil, im, seed, env)
			switch {
			case err != nil:
				errs[i] = err
			case run.Verdict != store.VerdictOK:
				fails[i] = &Failure{Seed: i + 1, Kind: run.Verdict,
					Err: run.Err, Reproduced: run.Reproduced}
			default:
				out.Counts[i] = run.Reports
			}
		}(i)
	}
	for n := 0; n < nseeds; n++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	out.finish(fails)
	return out, nil
}

// SeedResult is one seed's terminal outcome, independent of where the seed
// ran: an in-process sweep, a recorded run store, or a daemon job group.
// Verdict is store.VerdictOK for a surviving seed, else the failure
// taxonomy (harness.Tax*).
type SeedResult struct {
	Seed       int
	Verdict    string
	Reports    int
	Err        string
	Reproduced bool
}

// Aggregate folds per-seed terminal results into a sweep Outcome — the
// cross-seed statistics core shared by Rebuild (store headers) and the
// analysis daemon (job groups). Later duplicates of a seed win, mirroring
// Rebuild's header semantics; seeds never reported stay as zero-count
// survivors.
func Aggregate(tool string, results []SeedResult) Outcome {
	rs := append([]SeedResult(nil), results...)
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	nseeds := 0
	for _, r := range rs {
		if r.Seed > nseeds {
			nseeds = r.Seed
		}
	}
	out := Outcome{Tool: tool, Seeds: nseeds, Counts: make([]int, nseeds)}
	fails := make([]*Failure, nseeds)
	for _, r := range rs {
		if r.Seed <= 0 || r.Seed > nseeds {
			continue
		}
		i := r.Seed - 1
		if r.Verdict == store.VerdictOK {
			out.Counts[i] = r.Reports
			fails[i] = nil
			continue
		}
		fails[i] = &Failure{Seed: r.Seed, Kind: r.Verdict,
			Err: r.Err, Reproduced: r.Reproduced}
	}
	out.finish(fails)
	return out
}

// Rebuild reconstructs a sweep's Outcome from recorded run headers — the
// cross-seed aggregation `taskgrind query agg` prints. Given the complete
// header set of one sweep (seeds 1..N, one run per seed), the result is
// bit-identical to the Outcome the in-process sweep returned: same verdict
// matrix, same failure taxonomy, same summary statistics.
func Rebuild(tool string, headers []store.RunHeader) Outcome {
	rs := make([]SeedResult, 0, len(headers))
	for _, h := range headers {
		rs = append(rs, SeedResult{Seed: int(h.Seed), Verdict: h.Verdict,
			Reports: h.Reports, Err: h.Err, Reproduced: h.Reproduced})
	}
	return Aggregate(tool, rs)
}
