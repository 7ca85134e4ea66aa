package serve

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/progs"
	"repro/internal/tools/toolreg"
)

// TestFrontEndParity: a daemon job's output and crash report are the bytes
// the CLI prints for the same configuration, whatever the tool and whether
// or not the job is supervised. The reference is an independent run —
// harness.New, toolreg.Render and CrashReport.Render, stamped with the
// spec's replay token — not the daemon's own run path.
func TestFrontEndParity(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	for _, sp := range []JobSpec{
		{Prog: "task.c", Tool: "taskgrind", Seed: 2},
		{Prog: "lock-102-no-lock", Tool: "lockgrind"},
		{Prog: "task.c", Tool: "memcheck"},
		{Prog: "wildstore"},
		{Prog: "wildstore", Supervised: true},
	} {
		sp.Normalize()
		t.Run(fmt.Sprintf("%s,%s,supervised=%v", sp.Prog, sp.Tool, sp.Supervised), func(t *testing.T) {
			jobs, err := s.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			v := await(t, s, jobs[0].ID, 60*time.Second)
			if v.Result == nil {
				t.Fatalf("job ended %s without a result", v.Status)
			}
			output, crash := independentRun(t, sp)
			if v.Result.Output != output {
				t.Errorf("output differs from an independent run:\n--- daemon\n%s--- independent\n%s", v.Result.Output, output)
			}
			if v.Result.Crash != crash {
				t.Errorf("crash report differs from an independent run:\n--- daemon\n%s--- independent\n%s", v.Result.Crash, crash)
			}
			if crash != "" && v.Token != sp.Token() {
				t.Errorf("job token %s, spec token %s", v.Token, sp.Token())
			}
		})
	}
}

// independentRun runs a normalized spec once, unsupervised, and renders
// what the CLI prints: guest output plus the tool report for a run that
// completes, the crash report for one that does not.
func independentRun(t *testing.T, sp JobSpec) (output, crash string) {
	t.Helper()
	b, err := progs.Build(sp.Prog, sp.Lulesh())
	if err != nil {
		t.Fatal(err)
	}
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	tl, count, err := toolreg.Make(sp.Tool)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	inst, err := harness.New(harness.Setup{
		Image: im, Tool: tl, Seed: sp.Seed, Threads: sp.Threads,
		Stdout: &stdout, ReplayToken: sp.Token(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := inst.Run()
	if res.Crash != nil {
		return "", res.Crash.Render(im)
	}
	if res.Err != nil {
		t.Fatalf("independent run failed: %v", res.Err)
	}
	text, ok := toolreg.Render(tl)
	if !ok {
		text = fmt.Sprintf("== %d report(s)\n", count())
	}
	return stdout.String() + text, ""
}
