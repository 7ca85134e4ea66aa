package dbi_test

import (
	"io"
	"testing"

	"repro/internal/dbi"
	"repro/internal/harness"
	"repro/internal/obs"
)

// TestProfileWeightMatchesInstrs checks the profiler's weighting identity:
// at interval 1 every dispatched block fires, each credited its retired
// instruction count, so the profile total equals the machine's retired
// instruction counter — on both engines.
func TestProfileWeightMatchesInstrs(t *testing.T) {
	for _, engine := range []string{dbi.EngineIR, dbi.EngineCompiled} {
		prof := obs.NewProfiler(1)
		res, inst, err := harness.BuildAndRun(fuzzProgram(3), harness.Setup{
			Seed: 1, Threads: 1, Stdout: io.Discard, Engine: engine,
			Obs: &obs.Hooks{Prof: prof},
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Err != nil {
			t.Fatalf("%s: run: %v", engine, res.Err)
		}
		if total, instrs := prof.Total(), inst.M.InstrsExecuted; total != instrs {
			t.Errorf("%s: profile total %d != retired instructions %d", engine, total, instrs)
		}
	}
}
