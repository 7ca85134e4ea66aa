package dbi_test

// Tool-level delivery differential: real tools that instrument through
// InstrumentAccesses must render the same reports whether the core hands
// them their accesses batched or one per dirty call on the reference path
// (dbitest.PerAccessTool), on both engines. diffEngines proves the two
// streams equal access for access; these legs pin what a user reads.

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/dbi"
	"repro/internal/dbi/dbitest"
	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/tools/memcheck"
	"repro/internal/tools/tasksan"
)

// runDelivery runs mk under tool on engine, batched, or on the per-access
// reference path when perAccess is set.
func runDelivery(t *testing.T, mk func() *gbuild.Builder, engine string, tool dbi.Tool, perAccess bool) {
	t.Helper()
	run := tool
	if perAccess {
		run = dbitest.PerAccessTool{Tool: tool}
	}
	res, _, err := harness.BuildAndRun(mk(), harness.Setup{
		Tool: run, Seed: 1, Threads: 4, Stdout: io.Discard, Engine: engine,
	})
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: run: %v", engine, res.Err)
	}
}

// TestDeliveryDifferentialMemcheck asserts memcheck's report text and
// findings are identical across delivery paths on Listing 4 and the
// Table I suite, both engines.
func TestDeliveryDifferentialMemcheck(t *testing.T) {
	progs := append([]drb.Benchmark{{Name: "task.c", Build: buildListing4}}, drb.All()...)
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		engine := engine
		for _, p := range progs {
			p := p
			t.Run(engine+"/"+p.Name, func(t *testing.T) {
				ref, got := memcheck.New(), memcheck.New()
				runDelivery(t, p.Build, engine, ref, true)
				runDelivery(t, p.Build, engine, got, false)
				if ref.String() != got.String() {
					t.Fatalf("report text diverges:\nper-access:\n%s\nbatched:\n%s", ref, got)
				}
				if !reflect.DeepEqual(ref.Findings, got.Findings) {
					t.Fatalf("findings diverge: per-access=%+v batched=%+v", ref.Findings, got.Findings)
				}
			})
		}
	}
}

// TestDeliveryDifferentialTasksan asserts the segment-graph race detector
// produces identical reports and analysis counters across delivery paths on
// the Table I suite, both engines. CompileTime is off, so the accesses go
// through the DBI engines.
func TestDeliveryDifferentialTasksan(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		engine := engine
		for _, b := range drb.All() {
			b := b
			t.Run(engine+"/"+b.Name, func(t *testing.T) {
				ref, got := tasksan.New(), tasksan.New()
				ref.Opt.CompileTime, got.Opt.CompileTime = false, false
				runDelivery(t, b.Build, engine, ref, true)
				runDelivery(t, b.Build, engine, got, false)
				if ref.RaceCount != got.RaceCount {
					t.Fatalf("race count diverges: per-access=%d batched=%d", ref.RaceCount, got.RaceCount)
				}
				if r, g := ref.Reports.String(), got.Reports.String(); r != g {
					t.Fatalf("report text diverges:\nper-access:\n%s\nbatched:\n%s", r, g)
				}
				if !reflect.DeepEqual(ref.Stats, got.Stats) {
					t.Fatalf("analysis stats diverge:\nper-access: %+v\nbatched:    %+v", ref.Stats, got.Stats)
				}
			})
		}
	}
}
