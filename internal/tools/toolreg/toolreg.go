// Package toolreg is the tool factory shared by the benchmark harnesses and
// command-line drivers: it instantiates a tool plugin by name together with
// a race-report counter.
package toolreg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/tools/archer"
	"repro/internal/tools/lockgrind"
	"repro/internal/tools/memcheck"
	"repro/internal/tools/romp"
	"repro/internal/tools/tasksan"
)

// Names lists the available tools.
func Names() []string {
	return []string{"none", "taskgrind", "taskgrind-naive", "archer", "tasksan", "romp", "memcheck", "lockgrind"}
}

// Make instantiates a tool. "none" returns a nil tool (uninstrumented
// reference run). "taskgrind-naive" disables every §IV suppression (the
// ~400k-reports configuration). Every Taskgrind variant runs Algorithm 1
// as one sequential address-ordered sweep that checks only the segment
// pairs sharing a byte where a report is possible (core.Taskgrind.Fini).
func Make(name string) (dbi.Tool, func() int, error) {
	switch name {
	case "none", "":
		return nil, func() int { return 0 }, nil
	case "taskgrind":
		tg := core.New(core.DefaultOptions())
		tg.Variant = name
		return tg, func() int { return tg.RaceCount }, nil
	case "taskgrind-naive":
		tg := core.New(core.NaiveOptions())
		tg.Variant = name
		return tg, func() int { return tg.RaceCount }, nil
	case "archer":
		a := archer.New()
		return a, a.RaceCount, nil
	case "tasksan":
		ts := tasksan.New()
		ts.Variant = name
		return ts, func() int { return ts.RaceCount }, nil
	case "romp":
		r := romp.New()
		r.Variant = name
		return r, func() int { return r.RaceCount }, nil
	case "memcheck":
		mc := memcheck.New()
		return mc, func() int { return len(mc.Findings) }, nil
	case "lockgrind":
		lg := lockgrind.New()
		return lg, lg.Count, nil
	}
	return nil, nil, fmt.Errorf("toolreg: unknown tool %q (have %v)", name, Names())
}

// Render returns the tool's user-facing report text — the exact bytes the
// CLI prints. It is the single rendering switch shared by cmd/taskgrind,
// the golden snapshots and the verdict matrix, so none of them can drift.
// ok is false for tools without a renderer (nil, trace recorders).
func Render(tool dbi.Tool) (text string, ok bool) {
	switch tt := tool.(type) {
	case *core.Taskgrind:
		if tt.Opt.IgnoreMutexinoutsetDeps { // the ROMP configuration
			return romp.Format(&tt.Reports), true
		}
		return tt.Reports.String(), true
	case *archer.Archer:
		return tt.String(), true
	case *memcheck.Memcheck:
		return tt.String(), true
	case *lockgrind.Lockgrind:
		return tt.String(), true
	}
	return "", false
}
