package main

// The daemon client verbs: `taskgrind submit|status|cancel` talk to a
// running taskgrindd over HTTP/JSON. `submit -wait` polls the job to its
// terminal state and exits with the same taxonomy exit code a local
// `taskgrind` run of that configuration would have used — scripts cannot
// tell the two front ends apart.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/harness"
	"repro/internal/obs/store"
	"repro/internal/serve"
)

// getJSON decodes a GET response into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// exitFor maps one terminal job view to the CLI exit-code table.
func exitFor(v serve.JobView) int {
	switch {
	case v.Status == serve.StatusCanceled:
		return harness.ExitCodeFor(harness.TaxCanceled)
	case v.Result == nil:
		return 2
	case v.Result.Verdict == store.VerdictOK:
		if v.Result.Reports > 0 {
			return 1
		}
		return 0
	}
	return harness.ExitCodeFor(v.Result.Verdict)
}

// runSubmit implements `taskgrind submit`: build a job spec from flags (or
// a replay token), POST it, optionally wait for the terminal state.
func runSubmit(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "http://localhost:8080", "daemon base URL")
		token      = fs.String("token", "", "submit a replay token (tg1:...) instead of spec flags")
		prog       = fs.String("prog", "task.c", "program to run")
		tool       = fs.String("tool", "taskgrind", "analysis tool")
		seed       = fs.Uint64("seed", 1, "scheduler seed")
		seeds      = fs.Int("seeds", 1, "seed-range sweep: submit seeds seed..seed+N-1 as one group")
		threads    = fs.Int("threads", 4, "OMP_NUM_THREADS")
		engine     = fs.String("engine", "", "execution engine (compiled, ir)")
		inject     = fs.String("inject", "", "fault injection spec")
		injectSeed = fs.Uint64("inject-seed", 1, "fault injection seed")
		lenient    = fs.Bool("lenient-mem", false, "lenient guest memory model")
		timeout    = fs.Duration("timeout", 0, "per-job wall budget (0 = daemon default)")
		maxBlocks  = fs.Uint64("max-blocks", 0, "watchdog block budget")
		maxInstrs  = fs.Uint64("max-instrs", 0, "watchdog instruction budget")
		supervised = fs.Bool("supervised", false, "replay-verify crashes; degrade host panics to the IR oracle")
		retries    = fs.Int("retries", 0, "transient-failure retries (0 = daemon default, -1 disables)")
		wait       = fs.Bool("wait", false, "poll until terminal; exit with the taxonomy exit code")
		interval   = fs.Duration("poll", 100*time.Millisecond, "poll interval for -wait")
		ls         = fs.Int("s", 0, "lulesh: mesh size")
		li         = fs.Int("i", 0, "lulesh: iterations")
		ltel       = fs.Int("tel", 0, "lulesh: tasks per element loop")
		ltnl       = fs.Int("tnl", 0, "lulesh: tasks per node loop")
		lracy      = fs.Bool("racy", false, "lulesh: drop a task dependence")
	)
	fs.Parse(args)

	req := map[string]any{}
	if *token != "" {
		req["token"] = *token
	} else {
		sp := serve.JobSpec{
			Prog: *prog, Tool: *tool, Seed: *seed, Seeds: *seeds,
			Threads: *threads, Engine: *engine,
			Inject: *inject, Lenient: *lenient,
			MaxBlocks: *maxBlocks, MaxInstrs: *maxInstrs,
			TimeoutMS:  int64(*timeout / time.Millisecond),
			Supervised: *supervised, MaxRetries: *retries,
			LSize: *ls, LIters: *li, LTasksEl: *ltel, LTasksNd: *ltnl, LRacy: *lracy,
		}
		if *inject != "" {
			sp.InjectSeed = *injectSeed
		}
		b, err := json.Marshal(sp)
		if err != nil {
			fmt.Fprintln(w, "submit:", err)
			return 2
		}
		if err := json.Unmarshal(b, &req); err != nil {
			fmt.Fprintln(w, "submit:", err)
			return 2
		}
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(*addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(w, "submit:", err)
		return 2
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(w, "submit: %s: %s\n", resp.Status, bytes.TrimSpace(msg))
		return 2
	}
	var sub struct {
		Jobs  []serve.JobView `json:"jobs"`
		Group string          `json:"group"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		fmt.Fprintln(w, "submit:", err)
		return 2
	}
	for _, j := range sub.Jobs {
		fmt.Fprintf(w, "%s %s %s\n", j.ID, j.Status, j.Token)
	}
	if sub.Group != "" {
		fmt.Fprintf(w, "group %s\n", sub.Group)
	}
	if !*wait {
		return 0
	}

	// Poll every job to its terminal state; the worst exit code wins, so a
	// sweep with one crashed seed exits like the crashed run.
	code := 0
	for _, j := range sub.Jobs {
		var v serve.JobView
		for {
			if err := getJSON(*addr+"/jobs/"+j.ID, &v); err != nil {
				fmt.Fprintln(w, "submit:", err)
				return 2
			}
			if v.Status.Terminal() {
				break
			}
			time.Sleep(*interval)
		}
		if v.Result != nil {
			if v.Result.Output != "" {
				fmt.Fprint(w, v.Result.Output)
			}
			if v.Result.Crash != "" {
				fmt.Fprint(w, v.Result.Crash)
			}
		}
		fmt.Fprintf(w, "%s %s", v.ID, v.Status)
		if v.Result != nil && v.Result.Verdict != store.VerdictOK {
			fmt.Fprintf(w, " verdict=%s replay=%s", v.Result.Verdict, v.Result.ReplayToken)
		}
		fmt.Fprintln(w)
		if c := exitFor(v); c > code {
			code = c
		}
	}
	return code
}

// runStatus implements `taskgrind status [id]`: one job's view, or the
// full job list.
func runStatus(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "daemon base URL")
	status := fs.String("status", "", "filter the list by status")
	group := fs.String("group", "", "filter the list by sweep group")
	fs.Parse(args)
	url := *addr + "/jobs"
	if fs.NArg() > 0 {
		url += "/" + fs.Arg(0)
	} else {
		url += "?status=" + *status + "&group=" + *group
	}
	var raw json.RawMessage
	if err := getJSON(url, &raw); err != nil {
		fmt.Fprintln(w, "status:", err)
		return 2
	}
	var buf bytes.Buffer
	_ = json.Indent(&buf, raw, "", "  ")
	fmt.Fprintln(w, buf.String())
	return 0
}

// runCancel implements `taskgrind cancel <id>`.
func runCancel(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "daemon base URL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(w, "cancel: usage: taskgrind cancel [-addr URL] <job-id>")
		return 2
	}
	req, _ := http.NewRequest(http.MethodDelete, *addr+"/jobs/"+fs.Arg(0), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(w, "cancel:", err)
		return 2
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(w, "cancel: %s: %s\n", resp.Status, bytes.TrimSpace(body))
		return 2
	}
	var v serve.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		fmt.Fprintln(w, "cancel:", err)
		return 2
	}
	fmt.Fprintf(w, "%s %s\n", v.ID, v.Status)
	return 0
}
