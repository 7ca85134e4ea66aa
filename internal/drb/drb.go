// Package drb implements the microbenchmark suites of the paper's Table I:
// the task-related subset of DataRaceBench (DRB) plus the seven
// Taskgrind-specific microbenchmarks (TMB) that exercise the heavyweight-DBI
// pitfalls of §IV, together with the verdict harness that runs every
// benchmark under every tool and classifies the result (TP/FP/TN/FN,
// plus the "ncs" and "segv" tool-limitation outcomes).
package drb

import (
	"fmt"

	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/tools/toolreg"
)

// Verdict classifies a tool's answer against the ground truth.
type Verdict uint8

// Verdicts.
const (
	TN Verdict = iota
	TP
	FP
	FN
	// NCS: "no compiler support" — the TaskSanitizer front end (Clang 8)
	// cannot build the benchmark.
	NCS
	// SEGV: the instrumented run crashes (ROMP on threadprivate).
	SEGV
)

// String renders a verdict like the paper's table.
func (v Verdict) String() string {
	switch v {
	case TN:
		return "TN"
	case TP:
		return "TP"
	case FP:
		return "FP"
	case FN:
		return "FN"
	case NCS:
		return "ncs"
	case SEGV:
		return "segv"
	}
	return "?"
}

// Classify combines detection with ground truth.
func Classify(race, detected bool) Verdict {
	switch {
	case race && detected:
		return TP
	case race && !detected:
		return FN
	case !race && detected:
		return FP
	default:
		return TN
	}
}

// Tool identifies one of the four compared tools.
type Tool uint8

// Tools, in the paper's column order.
const (
	ToolTaskSanitizer Tool = iota
	ToolArcher
	ToolROMP
	ToolTaskgrind
	NumTools
)

// String renders the tool name.
func (t Tool) String() string {
	switch t {
	case ToolTaskSanitizer:
		return "TaskSanitizer"
	case ToolArcher:
		return "Archer"
	case ToolROMP:
		return "ROMP"
	case ToolTaskgrind:
		return "Taskgrind"
	}
	return "?"
}

// Benchmark is one Table I row source.
type Benchmark struct {
	// Name matches the paper ("027-taskdependmissing-orig", "1001-stack_1").
	Name string
	// Race is the ground truth ("Determinacy Race" column).
	Race bool
	// TMB marks the Taskgrind-specific suite (run at 1 and 4 threads).
	TMB bool
	// TsanNCS: TaskSanitizer's Clang 8 front end cannot compile it.
	TsanNCS bool
	// RompSegv: the ROMP-instrumented run crashes.
	RompSegv bool
	// Build constructs the guest program.
	Build func() *gbuild.Builder
}

// All returns the full suite in table order.
func All() []Benchmark {
	out := append([]Benchmark{}, drbSuite()...)
	return append(out, tmbSuite()...)
}

// ByName finds a benchmark, searching the Table I suites and the lock
// scenarios (which live outside All so the table reproduction stays exact).
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	for _, b := range LockSuite() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// DefaultSeeds are the scheduler seeds each (benchmark, tool) pair is run
// under; a race is "detected" if any seed reports.
var DefaultSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// registryNames are the tools' names in the tool registry (toolreg), in
// the paper's column order.
var registryNames = [NumTools]string{"tasksan", "archer", "romp", "taskgrind"}

// Detect runs a benchmark under a tool across seeds and reports whether any
// run found a race.
func Detect(b Benchmark, tool Tool, threads int, seeds []uint64) (bool, error) {
	for _, seed := range seeds {
		t, count, err := toolreg.Make(registryNames[tool])
		if err != nil {
			return false, err
		}
		res, _, err := harness.BuildAndRun(b.Build(), harness.Setup{
			Tool: t, Seed: seed, Threads: threads,
		})
		if err != nil {
			return false, fmt.Errorf("%s under %s seed %d: %w", b.Name, tool, seed, err)
		}
		if res.Err != nil {
			return false, fmt.Errorf("%s under %s seed %d: %w", b.Name, tool, seed, res.Err)
		}
		if count() > 0 {
			return true, nil
		}
	}
	return false, nil
}

// VerdictOf produces one table cell.
func VerdictOf(b Benchmark, tool Tool, threads int, seeds []uint64) (Verdict, error) {
	if tool == ToolTaskSanitizer && b.TsanNCS {
		return NCS, nil
	}
	if tool == ToolROMP && b.RompSegv {
		return SEGV, nil
	}
	det, err := Detect(b, tool, threads, seeds)
	if err != nil {
		return 0, err
	}
	return Classify(b.Race, det), nil
}
