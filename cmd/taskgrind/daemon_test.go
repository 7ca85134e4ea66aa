package main

// End-to-end daemon coverage: build both binaries, run taskgrindd on a
// loopback port, and drive it through the `taskgrind submit/status/cancel`
// client verbs — including the exit-code parity between a local run and a
// `submit -wait` of the same configuration.

import (
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestExitCodeTaxonomy pins the documented exit-code table: each failure
// taxonomy gets its own code (fault=3, panic=4, timeout=5), distinct from
// the clean/reports/usage codes 0/1/2.
func TestExitCodeTaxonomy(t *testing.T) {
	bin := buildCLI(t)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"reports", []string{"-prog", "task.c", "-seed", "2"}, 1},
		{"usage", []string{"-prog", "nonesuch"}, 2},
		{"fault", []string{"-prog", "wildstore"}, 3},
		{"panic", []string{"-prog", "task.c", "-seed", "2", "-inject", "panic=40", "-inject-seed", "7"}, 4},
		{"timeout", []string{"-prog", "task.c", "-max-blocks", "5"}, 5},
	}
	for _, tc := range cases {
		out, code := runCLI(t, bin, tc.args...)
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.want, out)
		}
	}
}

// buildDaemon compiles taskgrindd into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "taskgrindd")
	out, err := exec.Command("go", "build", "-o", bin, "../taskgrindd").CombinedOutput()
	if err != nil {
		t.Fatalf("go build taskgrindd: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches taskgrindd on a free loopback port and waits for
// /healthz.
func startDaemon(t *testing.T, bin string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	base := "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("taskgrindd never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonSubmitWaitParity: `submit -wait` exits with the same taxonomy
// code a local run of the configuration uses, and the client verbs
// round-trip job state.
func TestDaemonSubmitWaitParity(t *testing.T) {
	cli := buildCLI(t)
	daemon := buildDaemon(t)
	_, base := startDaemon(t, daemon)

	// A clean-with-reports run: exit 1, race report rendered.
	out, code := runCLI(t, cli, "submit", "-addr", base, "-prog", "task.c", "-seed", "2", "-wait")
	if code != 1 {
		t.Fatalf("submit -wait exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "race") && !strings.Contains(out, "report") {
		t.Fatalf("no rendered report in submit -wait output:\n%s", out)
	}

	// A guest fault: exit 3, crash report + replay token surfaced.
	out, code = runCLI(t, cli, "submit", "-addr", base, "-prog", "wildstore", "-wait")
	if code != 3 {
		t.Fatalf("wildstore submit -wait exit %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "tg1:") {
		t.Fatalf("no replay token in failed job output:\n%s", out)
	}

	// status lists both jobs.
	out, code = runCLI(t, cli, "status", "-addr", base)
	if code != 0 || !strings.Contains(out, "j000001") || !strings.Contains(out, "j000002") {
		t.Fatalf("status exit %d:\n%s", code, out)
	}

	// cancel of a terminal job is a no-op success.
	out, code = runCLI(t, cli, "cancel", "-addr", base, "j000001")
	if code != 0 {
		t.Fatalf("cancel exit %d:\n%s", code, out)
	}
}

// TestSubmitTokenRejectsExtend: `submit -token` with a token that carries
// extend=, delivery=per-event or tool=taskgrind-par is refused by the daemon
// and exits with the usage code.
func TestSubmitTokenRejectsExtend(t *testing.T) {
	cli := buildCLI(t)
	_, base := startDaemon(t, buildDaemon(t))
	for setting, tok := range retiredTokens() {
		out, code := runCLI(t, cli, "submit", "-addr", base, "-token", tok, "-wait")
		if code != 2 || !strings.Contains(out, setting) {
			t.Fatalf("submit -token %s: exit %d, want 2 naming it\n%s", setting, code, out)
		}
	}
}

// TestDaemonDrainOnSignal: SIGTERM drains gracefully — in-flight work
// finishes, queued work persists to -state, and a successor daemon resumes
// it.
func TestDaemonDrainOnSignal(t *testing.T) {
	cli := buildCLI(t)
	daemon := buildDaemon(t)
	state := filepath.Join(t.TempDir(), "queue.json")
	cmd, base := startDaemon(t, daemon, "-workers", "1", "-state", state, "-drain-timeout", "2s")

	// One long job to occupy the worker, a few queued behind it.
	out, code := runCLI(t, cli, "submit", "-addr", base, "-prog", "lulesh", "-i", "300", "-timeout", "60s")
	if code != 0 {
		t.Fatalf("long submit exit %d:\n%s", code, out)
	}
	for i := 0; i < 3; i++ {
		if out, code := runCLI(t, cli, "submit", "-addr", base, "-prog", "task.c",
			"-seed", fmt.Sprint(i+1)); code != 0 {
			t.Fatalf("queued submit exit %d:\n%s", code, out)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain within 60s of SIGTERM")
	}

	// The successor resumes the parked jobs and runs them to completion.
	_, base2 := startDaemon(t, daemon, "-workers", "2", "-state", state)
	deadline := time.Now().Add(60 * time.Second)
	for {
		out, _ := runCLI(t, cli, "status", "-addr", base2)
		if strings.Count(out, `"status": "done"`) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed jobs never completed:\n%s", out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
