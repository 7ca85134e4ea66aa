// Command taskgrindd is the analysis daemon: a long-running HTTP/JSON
// service that accepts analysis jobs (program + tool + seed range + fault
// injection + budgets), runs them on a bounded worker pool, and
// survives anything a job does — guest faults, host panics, watchdog
// trips and deadlocks are classified, optionally replay-verified, and
// reported as that job's result.
//
//	taskgrindd -addr :8080 -workers 8 -queue 128 -state /tmp/tgd.json
//
//	curl -X POST localhost:8080/jobs -d '{"prog":"task.c","seeds":10}'
//	curl localhost:8080/jobs/j000001
//	curl localhost:8080/metrics
//
// SIGTERM/SIGINT triggers a graceful drain: admission stops (/readyz goes
// 503), in-flight jobs finish up to -drain-timeout, still-queued jobs are
// persisted to -state and resumed by the next daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs/store"
	"repro/internal/serve"
	"repro/internal/tstore"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 4, "concurrent analysis workers")
		queue        = flag.Int("queue", 64, "admission queue depth (submissions beyond it are shed with 429)")
		jobTimeout   = flag.Duration("job-timeout", 30*time.Second, "default per-job wall budget")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain wait for in-flight jobs")
		statePath    = flag.String("state", "", "persist still-queued jobs here at drain; resume them on start")
		recordDir    = flag.String("record", "", "append every job's run to this run-store directory (query with `taskgrind query`)")
		tcacheMaxMB  = flag.Int64("tcache-max-mb", 0, "translation store cap in MiB of host memory held by cached code (0 = unbounded); clock eviction keeps the cache under it")
		verbose      = flag.Bool("v", false, "print the metrics snapshot after drain")
	)
	flag.Parse()
	if *tcacheMaxMB < 0 || *tcacheMaxMB > math.MaxInt64>>20 {
		fatal(fmt.Errorf("-tcache-max-mb %d out of range [0, %d]", *tcacheMaxMB, int64(math.MaxInt64>>20)))
	}

	var rec *store.Writer
	if *recordDir != "" {
		w, err := store.Create(*recordDir)
		if err != nil {
			fatal(err)
		}
		rec = w
		defer rec.Close()
	}
	srv := serve.New(serve.Options{
		Workers: *workers, QueueDepth: *queue,
		JobTimeout: *jobTimeout, DrainTimeout: *drainTimeout,
		StatePath: *statePath, Record: rec,
		TCache: tstore.NewCacheOpts(tstore.Options{MaxBytes: *tcacheMaxMB << 20}),
	})
	if err := srv.Start(); err != nil {
		fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "taskgrindd: %v: draining\n", sig)
	case err := <-errc:
		fatal(err)
	}

	// Graceful drain: stop admitting, finish in-flight work, persist the
	// queue, then close the listener.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "taskgrindd: drain:", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "taskgrindd: shutdown:", err)
	}
	if *verbose {
		if err := srv.MetricsSnapshot().WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "taskgrindd:", err)
	os.Exit(2)
}
