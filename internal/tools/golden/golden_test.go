// Package golden snapshots each tool's rendered, user-visible report on a
// fixed set of example programs. The dbi differential suite proves batched
// delivery hands tools the same access stream as one call per access; these
// goldens additionally pin the *rendered output* byte-for-byte, so a
// delivery-path or engine refactor cannot silently reword, reorder, or drop
// reports. Regenerate with:
//
//	go test ./internal/tools/golden -update
package golden

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/omp"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// buildListing4 is the paper's running example (Listing 4): two sibling
// tasks racing on *xptr with no depend clauses.
func buildListing4() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("xptr", 8)
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2
	task := func(name string, line int, val int32) {
		f := b.Func(name, "task.c")
		f.Line(line)
		f.LoadSym(r1, "xptr")
		f.Ld(8, r1, r1, 0)
		f.Ldi(r2, val)
		f.St(4, r1, 0, r2)
		f.Ret()
	}
	task("task_a", 8, 42)
	task("task_b", 11, 43)
	f := b.Func("micro", "task.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_a"})
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_b"})
	})
	f.Leave()
	f = b.Func("main", "task.c")
	f.Enter(0)
	f.Ldi(r0, 8)
	f.Hcall("malloc")
	f.LoadSym(r1, "xptr")
	f.St(8, r1, 0, r0)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 0)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}

// goldenProg is one example program.
type goldenProg struct {
	name string
	mk   func() *gbuild.Builder
}

// goldenPrograms is the example set: the paper's Listing 4 plus a
// representative slice of Table I — racy and race-free task-dependency
// benchmarks and one TMB stack case.
func goldenPrograms(t *testing.T) []goldenProg {
	t.Helper()
	want := []string{
		"027-taskdependmissing-orig",
		"072-taskdep1-orig",
		"106-taskwaitmissing-orig",
		"131-taskdep4-orig-omp45",
		"1001-stack_1",
	}
	out := []goldenProg{{"task.c", buildListing4}}
	for _, name := range want {
		b, ok := drb.ByName(name)
		if !ok {
			t.Fatalf("golden program %q not in drb suite", name)
		}
		out = append(out, goldenProg{b.Name, b.Build})
	}
	return out
}

// lockPrograms is the lock-scenario example set: Listing 4 with its task
// bodies in a critical section plus every row of the drb lock suite.
func lockPrograms(t *testing.T) []goldenProg {
	t.Helper()
	out := []goldenProg{{"task.c-critical", progs.Listing4Critical}}
	for _, b := range drb.LockSuite() {
		if b.Name == "lock-106-trylock-crash" {
			continue // only meaningful under fault injection; covered by the explore sweep test
		}
		out = append(out, goldenProg{b.Name, b.Build})
	}
	return out
}

// render is cmd/taskgrind's report-printing switch (toolreg.Render): the
// same bytes the user sees on stdout.
func render(t *testing.T, tool dbi.Tool) string {
	t.Helper()
	text, ok := toolreg.Render(tool)
	if !ok {
		t.Fatalf("no renderer for tool %T", tool)
	}
	return text
}

// runTool executes prog under the named tool and engine ("" = the tool's
// default) and returns the rendered report.
func runTool(t *testing.T, mk func() *gbuild.Builder, toolName, engine string) string {
	t.Helper()
	tool, _, err := toolreg.Make(toolName)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := harness.BuildAndRun(mk(), harness.Setup{
		Tool: tool, Seed: 1, Threads: 4, Stdout: io.Discard, Engine: engine,
	})
	if err != nil {
		t.Fatalf("%s: %v", toolName, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: run: %v", toolName, res.Err)
	}
	return render(t, tool)
}

// engineSelectable reports whether the named tool runs under both execution
// engines. tasksan, romp and archer pin CompileTime instrumentation, so the
// engine dimension does not exist for them (SelectEngine rejects overrides).
func engineSelectable(toolName string) bool {
	switch toolName {
	case "tasksan", "romp", "archer":
		return false
	}
	return true
}

// testGoldens locks every tool's rendered output on every program against
// its checked-in snapshot, recorded from the default-engine run. With
// engines set, both execution engines must also reproduce the snapshot
// byte-for-byte wherever the tool supports engine selection.
func testGoldens(t *testing.T, tools []string, programs []goldenProg, engines bool) {
	for _, p := range programs {
		p := p
		for _, toolName := range tools {
			toolName := toolName
			t.Run(toolName+"/"+p.name, func(t *testing.T) {
				got := runTool(t, p.mk, toolName, "")
				path := filepath.Join("testdata", toolName+"__"+p.name+".golden")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update to record): %v", err)
				}
				if got != string(want) {
					t.Errorf("output diverges from golden %s:\n--- want ---\n%s--- got ---\n%s",
						path, want, got)
				}
				if !engines || !engineSelectable(toolName) {
					return
				}
				for _, eng := range []string{"ir", "compiled"} {
					if ee := runTool(t, p.mk, toolName, eng); ee != string(want) {
						t.Errorf("engine=%s output diverges from golden %s:\n--- want ---\n%s--- got ---\n%s",
							eng, path, want, ee)
					}
				}
			})
		}
	}
}

// TestGoldenReports locks five tools' rendered output on the Table I
// example programs.
func TestGoldenReports(t *testing.T) {
	testGoldens(t, []string{"taskgrind", "tasksan", "romp", "archer", "memcheck"}, goldenPrograms(t), false)
}

// TestGoldenLockReports locks all six tools' rendered output on the lock
// scenarios, on both engines, so a lock-handoff or seggraph change that
// perturbs any tool's verdict on a lock program fails loudly.
func TestGoldenLockReports(t *testing.T) {
	testGoldens(t, []string{"taskgrind", "tasksan", "romp", "archer", "memcheck", "lockgrind"}, lockPrograms(t), true)
}
