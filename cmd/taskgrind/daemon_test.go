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

	"repro/internal/explore"
	"repro/internal/obs/store"
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

// TestDaemonRejectsBadCaps: a negative translation-store cap, or a MiB
// count whose byte value overflows, is a usage error naming the flag,
// never an unbounded cache. The unusable -addr makes a daemon that accepted
// the cap exit at once instead of serving.
func TestDaemonRejectsBadCaps(t *testing.T) {
	bin := buildDaemon(t)
	for _, c := range [][2]string{
		{"-tcache-max-mb", "-1"},
		{"-tcache-max-mb", "8796093022208"}, // 2^43 MiB is 2^63 bytes
	} {
		out, code := runCLI(t, bin, "-addr", "127.0.0.1:99999", c[0], c[1])
		if code != 2 || !strings.Contains(out, c[0]) {
			t.Fatalf("taskgrindd %s %s: exit %d, want 2 naming the flag\n%s", c[0], c[1], code, out)
		}
	}
}

// TestRetiredRetryFlags: the daemon no longer retries jobs, so its retry
// budget and backoff-jitter seed flags and the client's per-job retry
// budget are gone; the translation store has one cap, in bytes, so the
// daemon's unit cap is gone too; and the CLI's per-block trace events are
// gone. Passing one is a usage error naming it.
func TestRetiredRetryFlags(t *testing.T) {
	daemon, cli := buildDaemon(t), buildCLI(t)
	for _, c := range []struct {
		bin, flag string
		args      []string
	}{
		{daemon, "-retries", []string{"-addr", "127.0.0.1:99999", "-retries", "2"}},
		{daemon, "-seed", []string{"-addr", "127.0.0.1:99999", "-seed", "3"}},
		{daemon, "-tcache-max-units", []string{"-addr", "127.0.0.1:99999", "-tcache-max-units", "3"}},
		{cli, "-retries", []string{"submit", "-addr", "http://127.0.0.1:99999", "-retries", "1"}},
		{cli, "-trace-blocks", []string{"-prog", "task.c", "-trace-blocks"}},
	} {
		out, code := runCLI(t, c.bin, c.args...)
		if code != 2 || !strings.Contains(out, c.flag) {
			t.Fatalf("%s %v: exit %d, want 2 naming %s\n%s", filepath.Base(c.bin), c.args, code, c.flag, out)
		}
	}
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

	// A clean-with-reports run: exit 1, and the local run's report bytes.
	local, lcode := runCLI(t, cli, "-prog", "task.c", "-seed", "2")
	out, code := runCLI(t, cli, "submit", "-addr", base, "-prog", "task.c", "-seed", "2", "-wait")
	if code != 1 || lcode != 1 {
		t.Fatalf("submit -wait exit %d, local exit %d, want 1\n%s", code, lcode, out)
	}
	if got, want := waited(t, out), local+"j000001 done\n"; got != want {
		t.Fatalf("submit -wait output differs from the local run's:\n--- submit\n%s--- want\n%s", got, want)
	}

	// A guest fault: exit 3, and the local run's crash report, replay token
	// included.
	local, lcode = runCLI(t, cli, "-prog", "wildstore")
	out, code = runCLI(t, cli, "submit", "-addr", base, "-prog", "wildstore", "-wait")
	if code != 3 || lcode != 3 {
		t.Fatalf("wildstore submit -wait exit %d, local exit %d, want 3\n%s", code, lcode, out)
	}
	m := tokenRE.FindStringSubmatch(local)
	if m == nil {
		t.Fatalf("local crash report carries no replay token:\n%s", local)
	}
	if got, want := waited(t, out), local+"j000002 failed verdict=fault replay="+m[1]+"\n"; got != want {
		t.Fatalf("submit -wait output differs from the local run's:\n--- submit\n%s--- want\n%s", got, want)
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

// waited drops `submit -wait` output's first line, the admission
// acknowledgement (job id, status, replay token), and returns what the wait
// printed.
func waited(t *testing.T, out string) string {
	t.Helper()
	ack, rest, _ := strings.Cut(out, "\n")
	if f := strings.Fields(ack); len(f) != 3 || !strings.HasPrefix(f[2], "tg1:") {
		t.Fatalf("submit acknowledgement %q is not `id status token`", ack)
	}
	return rest
}

// TestSubmitTokenRejectsExtend: `submit -token` with a token that carries
// extend=, delivery=per-event, tool=taskgrind-par or slice= is refused by
// the daemon and exits with the usage code.
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

// TestTokenIdentity: one configuration has one replay token and one run
// digest whichever front end ran it — the CLI's recorded run, the seed an
// explore sweep records, the daemon's recorded job — and decoding and
// re-encoding the token changes nothing; a -replay of the token records
// the same digest again.
func TestTokenIdentity(t *testing.T) {
	cli := buildCLI(t)
	daemonStore := t.TempDir()
	_, base := startDaemon(t, buildDaemon(t), "-record", daemonStore)
	// latest reads the header of the last run recorded in dir (Runs
	// orders by run ID).
	latest := func(dir string) store.RunHeader {
		t.Helper()
		r, err := store.OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := r.Runs(store.Q{})
		if err != nil || len(runs) == 0 {
			t.Fatalf("%s: recorded %d run(s), %v", dir, len(runs), err)
		}
		return runs[len(runs)-1]
	}
	recorded := func(args ...string) store.RunHeader {
		t.Helper()
		dir := t.TempDir()
		runCLI(t, cli, append(args, "-record", dir)...)
		return latest(dir)
	}
	// Every configuration runs seed 1, the default of all three front ends
	// and the first seed of a sweep.
	for _, args := range [][]string{
		{"-prog", "wildstore", "-threads", "2"},
		{"-prog", "lulesh", "-s", "4", "-racy"},
		{"-prog", "task.c", "-inject", "pool=3", "-inject-seed", "5"},
	} {
		name := strings.Join(args, " ")
		local := recorded(args...)
		swept := recorded(append([]string{"explore", "-seeds", "1"}, args...)...)
		replayed := recorded("-replay", local.ReplayToken)
		out, _ := runCLI(t, cli, append(append([]string{"submit", "-addr", base}, args...), "-wait")...)
		ack, _, _ := strings.Cut(out, "\n")
		fields := strings.Fields(ack)
		if len(fields) != 3 {
			t.Fatalf("submit %s: acknowledgement %q\n%s", name, ack, out)
		}
		job, daemon := fields[2], latest(daemonStore)
		sp, err := explore.ParseToken(local.ReplayToken)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tok := local.ReplayToken; tok == "" || swept.ReplayToken != tok || job != tok ||
			daemon.ReplayToken != tok || sp.Token() != tok {
			t.Errorf("%s: tokens differ\n cli     %s\n explore %s\n daemon  %s (recorded %s)\n decoded %s",
				name, tok, swept.ReplayToken, job, daemon.ReplayToken, sp.Token())
		}
		if d := local.Digest; d == "" || swept.Digest != d || daemon.Digest != d || replayed.Digest != d {
			t.Errorf("%s: digests differ\n cli     %s\n explore %s\n daemon  %s\n replay  %s",
				name, d, swept.Digest, daemon.Digest, replayed.Digest)
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
