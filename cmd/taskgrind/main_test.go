package main

import (
	"encoding/base64"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lulesh"
)

func TestBuildProgramResolvesNames(t *testing.T) {
	lp := lulesh.Params{S: 4, TEL: 2, TNL: 2, Iters: 1}
	for _, name := range []string{"task.c", "lulesh", "027-taskdependmissing-orig", "1001-stack_1"} {
		if _, err := buildProgram(name, lp); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := buildProgram("nonesuch", lp); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestListing4ReproducesThePaperExample(t *testing.T) {
	tg := core.New(core.DefaultOptions())
	res, _, err := harness.BuildAndRun(listing4(), harness.Setup{Tool: tg, Seed: 1, Threads: 4})
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	if tg.RaceCount != 1 {
		t.Fatalf("races = %d, want 1\n%s", tg.RaceCount, tg.Reports.String())
	}
}

// buildCLI compiles the taskgrind binary once per test into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "taskgrind")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs the binary and returns combined output + exit code.
func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if ok := isExit(err, &ee); !ok {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
	}
	return string(out), cmd.ProcessState.ExitCode()
}

func isExit(err error, ee **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*ee = e
	}
	return ok
}

var tokenRE = regexp.MustCompile(`replay: (tg1:[A-Za-z0-9_=-]+)`)

// TestReplayTokenReproducesCrash is the acceptance criterion: a crash
// report's replay token, fed back through -replay, reproduces the crash
// byte for byte.
func TestReplayTokenReproducesCrash(t *testing.T) {
	bin := buildCLI(t)
	orig, code := runCLI(t, bin, "-prog", "wildstore", "-seed", "1", "-threads", "2")
	if code != 3 {
		t.Fatalf("wildstore exit %d, want 3\n%s", code, orig)
	}
	m := tokenRE.FindStringSubmatch(orig)
	if m == nil {
		t.Fatalf("crash report carries no replay token:\n%s", orig)
	}
	replayed, code := runCLI(t, bin, "-replay", m[1])
	if code != 3 {
		t.Fatalf("replay exit %d, want 3\n%s", code, replayed)
	}
	if replayed != orig {
		t.Fatalf("replay is not byte-identical:\n--- original\n%s\n--- replay\n%s", orig, replayed)
	}
}

// TestReplayTokenRoundTripsInjection: an injected crash replays exactly,
// including the injection spec carried in the token.
func TestReplayTokenRoundTripsInjection(t *testing.T) {
	bin := buildCLI(t)
	args := []string{"-prog", "task.c", "-seed", "2", "-inject", "panic=40", "-inject-seed", "7"}
	orig, code := runCLI(t, bin, args...)
	if code != 4 {
		t.Fatalf("injected run exit %d, want 4 (host panic)\n%s", code, orig)
	}
	m := tokenRE.FindStringSubmatch(orig)
	if m == nil {
		t.Fatalf("no replay token:\n%s", orig)
	}
	replayed, code := runCLI(t, bin, "-replay", m[1])
	if code != 4 || replayed != orig {
		t.Fatalf("injected replay differs (exit %d):\n--- original\n%s\n--- replay\n%s", code, orig, replayed)
	}
}

// extendToken is a replay token recorded with superblock extension, a mode
// this build no longer has.
func extendToken() string {
	return "tg1:" + base64.RawURLEncoding.EncodeToString([]byte("extend=64&prog=task.c&seed=1"))
}

// TestReplayTokenRejectsExtend: -replay refuses a token that names a block
// granularity this build cannot reproduce, with the usage exit code.
func TestReplayTokenRejectsExtend(t *testing.T) {
	bin := buildCLI(t)
	out, code := runCLI(t, bin, "-replay", extendToken())
	if code != 2 || !strings.Contains(out, "extend=64") {
		t.Fatalf("-replay extend token: exit %d, want 2 naming extend\n%s", code, out)
	}
}

// TestOnPanicFallbackMatchesUninjected is the acceptance criterion: an
// injected engine panic under -on-panic=fallback completes under the IR
// oracle with the same tool report as an uninjected run.
func TestOnPanicFallbackMatchesUninjected(t *testing.T) {
	bin := buildCLI(t)
	base, code := runCLI(t, bin, "-prog", "task.c", "-seed", "2")
	if code != 1 {
		t.Fatalf("baseline exit %d, want 1 (a found race)\n%s", code, base)
	}
	fb := exec.Command(bin, "-prog", "task.c", "-seed", "2",
		"-inject", "panic=40", "-inject-seed", "7", "-on-panic=fallback")
	var stdout, stderr strings.Builder
	fb.Stdout, fb.Stderr = &stdout, &stderr
	_ = fb.Run()
	if fb.ProcessState.ExitCode() != 1 {
		t.Fatalf("fallback exit %d, want 1\nstdout:\n%s\nstderr:\n%s",
			fb.ProcessState.ExitCode(), stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "IR oracle") {
		t.Fatalf("no degradation notice on stderr:\n%s", stderr.String())
	}
	// The baseline prints reports on stdout only (exit 1, no crash).
	if stdout.String() != base {
		t.Fatalf("fallback tool report differs from uninjected run:\n--- fallback\n%s\n--- baseline\n%s",
			stdout.String(), base)
	}
}
