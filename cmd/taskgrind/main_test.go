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
	"repro/internal/progs"
)

func TestBuildProgramResolvesNames(t *testing.T) {
	lp := lulesh.Params{S: 4, TEL: 2, TNL: 2, Iters: 1}
	for _, name := range []string{"task.c", "lulesh", "027-taskdependmissing-orig", "1001-stack_1"} {
		if _, err := progs.Build(name, lp); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := progs.Build("nonesuch", lp); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestListing4ReproducesThePaperExample(t *testing.T) {
	tg := core.New(core.DefaultOptions())
	res, _, err := harness.BuildAndRun(progs.Listing4(), harness.Setup{Tool: tg, Seed: 1, Threads: 4})
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
	// The second token is the one builds with a delivery option printed
	// for this run: the same configuration plus delivery=batched.
	const olderToken = "tg1:ZGVsaXZlcnk9YmF0Y2hlZCZwcm9nPXdpbGRzdG9yZSZzZWVkPTEmdGhyZWFkcz0yJnRvb2w9dGFza2dyaW5k"
	for _, tok := range []string{m[1], olderToken} {
		replayed, code := runCLI(t, bin, "-replay", tok)
		if code != 3 {
			t.Fatalf("replay %s: exit %d, want 3\n%s", tok, code, replayed)
		}
		if replayed != orig {
			t.Fatalf("replay %s is not byte-identical:\n--- original\n%s\n--- replay\n%s", tok, orig, replayed)
		}
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

// retiredTokens are replay tokens recorded under modes this build no longer
// has, keyed by what the refusal must name: superblock extension, per-event
// access delivery, the parallel analysis pass's taskgrind-par tool, a fixed
// timeslice, and the IR engine.
func retiredTokens() map[string]string {
	out := map[string]string{}
	for name, setting := range map[string]string{
		"extend=64":          "extend=64",
		"delivery=per-event": "delivery=per-event",
		"taskgrind-par":      "tool=taskgrind-par",
		"slice=7":            "slice=7",
		"engine=ir":          "engine=ir",
	} {
		out[name] = "tg1:" + base64.RawURLEncoding.EncodeToString([]byte(setting+"&prog=task.c&seed=1"))
	}
	return out
}

// TestReplayTokenRejectsExtend: -replay refuses a token that names a mode
// this build cannot reproduce, with the usage exit code.
func TestReplayTokenRejectsExtend(t *testing.T) {
	bin := buildCLI(t)
	for setting, tok := range retiredTokens() {
		out, code := runCLI(t, bin, "-replay", tok)
		if code != 2 || !strings.Contains(out, setting) {
			t.Fatalf("-replay %s token: exit %d, want 2 naming it\n%s", setting, code, out)
		}
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
