// Package explore runs a program under a tool across many scheduler seeds
// and aggregates the report counts — the methodology behind the paper's
// Table II row "149 to 273" for Archer: online detectors see only the
// schedule that actually ran, so their counts vary run to run, while
// Taskgrind's post-mortem segment analysis is schedule-independent.
//
// Runs execute in parallel on host goroutines (each owns an isolated guest
// machine), one of the places real Go parallelism is sound in this
// repository.
package explore

import (
	"fmt"
	"sort"

	"repro/internal/gbuild"
)

// Failure describes one quarantined seed: a schedule whose run crashed,
// hung or diverged. The sweep continues past it — a single bad interleaving
// must not cost the other N-1 data points.
type Failure struct {
	// Seed is the scheduler seed that failed.
	Seed int
	// Kind classifies the failure (the harness.Tax* taxonomy: "fault",
	// "panic", "timeout", "deadlock", "divergence", "error").
	Kind string
	// Err is the failure's rendered error.
	Err string
	// Reproduced reports that a supervised sweep replayed the crash
	// bit-identically before reporting it as real (Spec.Supervised only).
	Reproduced bool
}

// Outcome aggregates one (program, tool) exploration.
type Outcome struct {
	Tool string
	// Seeds counts the seeds that ran.
	Seeds int
	// Counts holds the per-seed report counts of the seeds that ran, in
	// seed order (zero for quarantined seeds); for seeds 1..Seeds, Counts[i]
	// is seed i+1's.
	Counts []int
	// Failed lists the seeds that were quarantined, in seed order.
	Failed []int
	// Failures carries the quarantined seeds' taxonomy, parallel to Failed.
	Failures []Failure
	// Min/Max/Distinct summarize schedule sensitivity over surviving seeds.
	Min, Max int
	Distinct int
	// DetectionRate is the fraction of surviving seeds with at least one
	// report.
	DetectionRate float64
}

// Stable reports whether every seed produced the same count.
func (o Outcome) Stable() bool { return o.Distinct <= 1 }

// String renders a Table-II-style range.
func (o Outcome) String() string {
	var s string
	if o.Min == o.Max {
		s = fmt.Sprintf("%s: %d report(s) across %d schedules (stable)", o.Tool, o.Min, o.Seeds)
	} else {
		s = fmt.Sprintf("%s: %d to %d report(s) across %d schedules (%d distinct, %.0f%% detecting)",
			o.Tool, o.Min, o.Max, o.Seeds, o.Distinct, o.DetectionRate*100)
	}
	if len(o.Failed) > 0 {
		s += fmt.Sprintf(" [%d seed(s) quarantined]", len(o.Failed))
	}
	return s
}

// Run explores nseeds schedules (seeds 1..n) of an unnamed program under
// tool with up to workers concurrent machines; RunOpts is the general form.
func Run(build func() *gbuild.Builder, tool string, threads, nseeds, workers int) (Outcome, error) {
	return RunOpts(build, Spec{Tool: tool, Threads: threads}, nseeds, Opts{Workers: workers})
}

// finish folds per-seed failures into the outcome and computes the summary
// statistics over the surviving seeds.
func (o *Outcome) finish(fails []*Failure) {
	survivors := make([]int, 0, len(o.Counts))
	for i, f := range fails {
		if f != nil {
			o.Failed = append(o.Failed, f.Seed)
			o.Failures = append(o.Failures, *f)
			continue
		}
		survivors = append(survivors, o.Counts[i])
	}
	if len(survivors) == 0 {
		return
	}
	sorted := append([]int(nil), survivors...)
	sort.Ints(sorted)
	o.Min, o.Max = sorted[0], sorted[len(sorted)-1]
	distinct := map[int]bool{}
	detecting := 0
	for _, c := range survivors {
		distinct[c] = true
		if c > 0 {
			detecting++
		}
	}
	o.Distinct = len(distinct)
	o.DetectionRate = float64(detecting) / float64(len(survivors))
}
