package lulesh

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/harness"
	"repro/internal/tools/toolreg"
)

// RunResult is one measured LULESH execution — a cell of Table II or a data
// point of Fig 4.
type RunResult struct {
	Params   Params
	Tool     string
	Threads  int
	ExitCode uint64
	// Wall is the recording-phase wall time (the paper excludes the
	// analysis pass from its timing).
	Wall time.Duration
	// AnalysisWall is the post-mortem analysis time (informational).
	AnalysisWall time.Duration
	// Instrs is the deterministic guest work metric.
	Instrs uint64
	// Footprint is guest + tool shadow memory in bytes.
	Footprint uint64
	// Reports is the number of determinacy-race reports.
	Reports int
}

// Run executes LULESH once under a named tool.
func Run(p Params, tool string, threads int, seed uint64) (RunResult, error) {
	b, err := Build(p)
	if err != nil {
		return RunResult{}, err
	}
	im, err := b.Link()
	if err != nil {
		return RunResult{}, err
	}
	t, count, err := toolreg.Make(tool)
	if err != nil {
		return RunResult{}, err
	}
	inst, err := harness.New(harness.Setup{Image: im, Tool: t, Seed: seed, Threads: threads})
	if err != nil {
		return RunResult{}, err
	}
	start := time.Now()
	runErr := inst.M.Run()
	wall := time.Since(start)
	if runErr != nil {
		return RunResult{}, fmt.Errorf("lulesh under %s: %w", tool, runErr)
	}
	var analysis time.Duration
	if t != nil {
		astart := time.Now()
		t.Fini(inst.Core)
		analysis = time.Since(astart)
	}
	return RunResult{
		Params:       p,
		Tool:         tool,
		Threads:      threads,
		ExitCode:     inst.M.ExitCode(),
		Wall:         wall,
		AnalysisWall: analysis,
		Instrs:       inst.M.InstrsExecuted,
		Footprint:    inst.M.Footprint(),
		Reports:      count(),
	}, nil
}

// cellRuns is how many times GenerateTableII and GenerateFig4 run each cell.
// A cell shows its median run's times, so one slow run cannot reorder a row.
const cellRuns = 3

// runCell runs one cell cellRuns times and returns the run of median wall
// time. The memory and report columns are deterministic: runs that disagree
// on either are an error.
func runCell(p Params, tool string, threads int, seed uint64) (RunResult, error) {
	var runs [cellRuns]RunResult
	for i := range runs {
		r, err := Run(p, tool, threads, seed)
		if err != nil {
			return RunResult{}, err
		}
		if f, n := runs[0].Footprint, runs[0].Reports; i > 0 && (r.Footprint != f || r.Reports != n) {
			return RunResult{}, fmt.Errorf("lulesh under %s: run %d has footprint %d and %d reports, run 1 %d and %d",
				tool, i+1, r.Footprint, r.Reports, f, n)
		}
		runs[i] = r
	}
	slices.SortFunc(runs[:], func(a, b RunResult) int { return cmp.Compare(a.Wall, b.Wall) })
	return runs[cellRuns/2], nil
}

// TableIIRow is one row of Table II.
type TableIIRow struct {
	Racy    bool
	Threads int
	Results map[string]RunResult // keyed by tool: none, archer, taskgrind
}

// GenerateTableII reproduces Table II: {correct, racy} × {1, 4} threads
// under no-tools, Archer, and Taskgrind, each cell the median of cellRuns
// runs. Unlike the paper's prototype, this implementation does not
// deadlock on multi-threaded runs, so the 4-thread Taskgrind cells carry
// real measurements.
func GenerateTableII(p Params, seed uint64) ([]TableIIRow, error) {
	var rows []TableIIRow
	for _, racy := range []bool{false, true} {
		for _, threads := range []int{1, 4} {
			pp := p
			pp.Racy = racy
			row := TableIIRow{Racy: racy, Threads: threads, Results: map[string]RunResult{}}
			for _, tool := range []string{"none", "archer", "taskgrind"} {
				res, err := runCell(pp, tool, threads, seed)
				if err != nil {
					return nil, err
				}
				row.Results[tool] = res
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTableII renders Table II.
func FormatTableII(rows []TableIIRow) string {
	out := fmt.Sprintf("%-5s %-4s | %-30s | %-30s | %-20s\n",
		"racy", "thr", "execution time", "memory", "reports")
	out += fmt.Sprintf("%-5s %-4s | %9s %9s %10s | %9s %9s %10s | %9s %10s\n",
		"", "", "no-tools", "archer", "taskgrind", "no-tools", "archer", "taskgrind", "archer", "taskgrind")
	for _, r := range rows {
		racy := "no"
		if r.Racy {
			racy = "yes"
		}
		n, a, t := r.Results["none"], r.Results["archer"], r.Results["taskgrind"]
		out += fmt.Sprintf("%-5s %-4d | %9s %9s %10s | %8.1fM %8.1fM %9.1fM | %9d %10d\n",
			racy, r.Threads,
			n.Wall.Round(time.Microsecond), a.Wall.Round(time.Microsecond), t.Wall.Round(time.Microsecond),
			float64(n.Footprint)/1e6, float64(a.Footprint)/1e6, float64(t.Footprint)/1e6,
			a.Reports, t.Reports)
	}
	return out
}

// Fig4Point is one problem-size sweep point: reference and Archer at 4
// threads, Taskgrind at 1 (the paper's configuration).
type Fig4Point struct {
	S         int
	Reference RunResult
	Archer    RunResult
	Taskgrind RunResult
}

// GenerateFig4 sweeps the problem size, each point's runs the median of
// cellRuns.
func GenerateFig4(sizes []int, base Params, seed uint64) ([]Fig4Point, error) {
	var out []Fig4Point
	for _, s := range sizes {
		p := base
		p.S = s
		ref, err := runCell(p, "none", 4, seed)
		if err != nil {
			return nil, err
		}
		arch, err := runCell(p, "archer", 4, seed)
		if err != nil {
			return nil, err
		}
		tg, err := runCell(p, "taskgrind", 1, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig4Point{S: s, Reference: ref, Archer: arch, Taskgrind: tg})
	}
	return out, nil
}

// FormatFig4 renders the sweep as the two series of Fig 4.
func FormatFig4(points []Fig4Point) string {
	out := fmt.Sprintf("%-4s | %12s %12s %12s | %10s %10s %10s | %8s %8s\n",
		"s", "ref time", "archer time", "tg time", "ref mem", "archer mem", "tg mem", "t-ovh", "m-ovh")
	for _, p := range points {
		tovh := float64(p.Taskgrind.Wall) / float64(p.Reference.Wall)
		movh := float64(p.Taskgrind.Footprint) / float64(p.Reference.Footprint)
		out += fmt.Sprintf("%-4d | %12s %12s %12s | %9.1fM %9.1fM %9.1fM | %7.1fx %7.1fx\n",
			p.S,
			p.Reference.Wall.Round(time.Microsecond),
			p.Archer.Wall.Round(time.Microsecond),
			p.Taskgrind.Wall.Round(time.Microsecond),
			float64(p.Reference.Footprint)/1e6,
			float64(p.Archer.Footprint)/1e6,
			float64(p.Taskgrind.Footprint)/1e6,
			tovh, movh)
	}
	return out
}
