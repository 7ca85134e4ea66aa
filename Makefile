GO ?= go

.PHONY: check vet build test race replay-determinism tstore-equiv lock-matrix bench-obs bench-perf bench-perf-smoke bench-rec bench-serve bench-smoke loadtest perf-guard query-smoke fuzz clean

# The full gate, in target order: vet (with the gofmt check), build, the
# tests under the race detector, the replay-determinism gate, the
# translation-store equivalence gate, the six-tool lock verdict-matrix
# gate, the fuzzer smoke runs, one iteration of the observability
# benchmark (writes BENCH_obs.json), one iteration of the root benchmarks
# (does not overwrite the recorded BENCH_perf.json), the benchmark-module
# smoke, the record-and-query smoke with the run-store suite (segments of
# earlier builds still read), the daemon load test and chaos soak,
# and the hot-path, journal-overhead, recording-overhead, serve-throughput
# and warm-store regression guards against the recorded baseline.
check: vet build race replay-determinism tstore-equiv lock-matrix fuzz bench-obs bench-perf-smoke bench-smoke query-smoke loadtest perf-guard

# vet also fails when gofmt would rewrite any tracked Go file.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Replay-determinism gate: two runs recording one mark stream; the
# journal's record, verify and divergence checks; the supervisor's clean
# pass-through and fallback paths, and its replay against a foreign
# schedule; the CLI's byte-for-byte -replay round trip, its refusal of
# tokens naming retired settings and its -on-panic=fallback report; one
# replay token and one run digest per configuration across the CLI,
# -replay, the daemon and explore sweeps; and the run-digest matrix
# (TestRunDigestMatrix), which holds the CLI path, cold and warm
# translation stores, journal-verified replay on both engines at drawn mark
# cadences, a recorded run, a daemon job (output, crash report and token)
# and a supervised run of every row (a crash reproduces under replay), under
# drawn fault injection, to the IR oracle's digest. Its arms 4-6 (a compiled
# run recording a journal, and its verified replays on the compiled engine
# and on the IR oracle) are the journal-verified resume of every Table I
# row at drawn mark cadences, on both engines. Fresh run (-count=1) so the
# gate never passes on a cached result.
replay-determinism:
	$(GO) test -count=1 -run 'TestCheckpointStreamsDeterministic|TestSupervisor|TestSupervisedReplay|TestJournal' ./internal/harness ./internal/vm ./internal/snapshot
	$(GO) test -count=1 -run 'TestReplayToken|TestOnPanicFallback|TestTokenIdentity' ./cmd/taskgrind
	$(GO) test -count=1 -run 'TestRunDigestMatrix' .

# Translation-store equivalence gate: the tstore unit suite (first writer
# wins, invalidation by key, eviction under the byte cap, and
# TestAdoptionSharesCode: an adopting core shares a unit's micro-ops and
# side tables, rebinds its own copy of the call table, and delivers its
# flushes to its own tool instance) under -race, plus
# the store-equivalence differential smoke — cold vs shared-cold vs warm
# compiled runs bit-identical, with the same footprint model, and the IR
# oracle storeless beside them, the crash-report and invalidation cases,
# the 16-worker shared-store race test with its capped arm (eviction under
# load changes no digest), the sweep amortization counter check, the
# daemon's shared store — and the pinned digest of every unit the Table I
# suite and racy LULESH publish (TestTranslationEncodingPinned). Fresh run
# (-count=1) so the gate never passes on a cached result.
tstore-equiv:
	$(GO) test -race -count=1 ./internal/tstore
	$(GO) test -race -count=1 -run 'TestStoreEquivalence|TestStoreInvalidation|TestStoreConcurrentWorkers|TestSweepAmortization|TestJobsShareTranslationStore|TestTranslationEncodingPinned' . ./internal/serve ./internal/tstore

# Lock verdict-matrix gate: the six-tool x lock-scenario acceptance matrix
# (expected verdict per cell on every default seed, byte-identical reports
# from the compiled engine and its IR oracle, replay-token reproduction of
# every reporting cell), the lock-scenario goldens under both, the
# scheduler-neutrality pin for lock-free programs, and the lock-fault
# injection determinism/journal/sweep suite. Fresh run (-count=1) so the
# gate never passes on a cached result.
lock-matrix:
	$(GO) test -count=1 -run 'TestVerdictMatrix|TestGoldenLockReports|TestLockSchedulerUnperturbed|TestLockFault' ./internal/tools/golden ./internal/harness ./internal/explore .

# Short fuzzing smoke runs over the untrusted-input surfaces: the
# assembler and the instruction decoder; plus the guest-memory model
# (strict loads and stores through the software TLB against a byte map and
# region list); plus Algorithm 1's candidate sweep against the all-pairs
# loop on synthetic segments; plus the translation pipeline (Optimize's
# register passes and Compile's fuser) against the direct interpreter on
# generated programs. Go runs one -fuzz package at a time, hence five
# invocations.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzAssemble' -fuzztime 5s ./internal/gasm
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 5s ./internal/guest
	$(GO) test -run '^$$' -fuzz 'FuzzMemoryModel' -fuzztime 5s ./internal/gmem
	$(GO) test -run '^$$' -fuzz 'FuzzAnalysisSweep' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzOptimizeMatchesDirect' -fuzztime 5s ./internal/dbi

# One short iteration of the observability benchmark; the metrics snapshot
# of the full-stack variant lands in BENCH_obs.json.
bench-obs:
	OBS_BENCH_OUT=BENCH_obs.json $(GO) test -run '^$$' -bench 'BenchmarkObservability' -benchtime 1x .

# Engine comparison on the Table I suite (IR interpreter vs compiled
# micro-op engine, cold and warm from a primed translation store), the
# journal and state-mark overhead arms (ckpt-16, ckpt-4) and the
# lock-contention comparison; writes the "engines", "robustness" and
# "locks" sections of BENCH_perf.json. Longer -benchtime accumulates more
# samples and tightens the numbers.
bench-perf:
	PERF_BENCH_OUT=BENCH_perf.json $(GO) test -run '^$$' -bench 'BenchmarkPerfEngines|BenchmarkRobustness|BenchmarkLockContention' -benchtime 10x .

# Smoke run for the gate: exercises every arm once, no JSON output.
bench-perf-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPerfEngines|BenchmarkRobustness|BenchmarkRecording|BenchmarkLockContention' -benchtime 1x .

# The repository benchmark (bench/) is its own Go module built against this
# one through a replace directive, so root `go test ./...` never compiles
# it: vet and smoke-test it here so a change to an exported name it uses
# cannot break it unnoticed.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Recording-overhead comparison: the ring sink against the columnar run
# store on the observability workload (Taskgrind on LULESH -s 8, 4
# threads). Writes the "recording" section of BENCH_perf.json: each arm's
# wall time, events and instructions, and the store arm's dropped events,
# segment bytes and overhead ratio, which TestRecordingOverheadRegression
# (perf-guard) bounds below 2x.
bench-rec:
	PERF_BENCH_OUT=BENCH_perf.json $(GO) test -run '^$$' -bench 'BenchmarkRecording' -benchtime 3x .

# Daemon throughput (jobs/sec + p99 queue wait on a 200-job task.c sweep
# through the serve worker pool); writes the "serve" section of
# BENCH_perf.json.
bench-serve:
	PERF_BENCH_OUT=BENCH_perf.json $(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime 3x .

# Daemon robustness under load: the pure-volume load test (LOADTEST=1 runs
# 2,000 small task.c jobs through 8 workers and a 64-deep queue, all of
# which must end done) and the chaos soak (600 jobs from 24 concurrent HTTP
# submitters, a mix of healthy runs, guest faults, injected faults and
# watchdog trips: every job runs once, the daemon stays healthy, every
# failure is classified with a replay token, token re-submission
# reproduces crashes byte for byte, and cancel and drain finish within
# their deadlines). Fresh run (-count=1) so the gate never passes on a
# cached result.
loadtest:
	LOADTEST=1 $(GO) test -count=1 -run 'TestServeLoad' .
	$(GO) test -count=1 -run 'TestChaosSoak' ./internal/serve

# Record-and-query smoke: the run-store suite (the segment golden, segments
# written by earlier builds, a store mixing them, torn segments, the
# one-writer lock); then a recorded task.c run queried by every verb
# through the CLI, four of them against byte goldens; and a 106-run sweep
# recorded in process whose `query agg` rebuild equals the sweep's own
# outcome. Fresh run (-count=1) so the gate never passes on a cached
# result.
query-smoke:
	$(GO) test -count=1 ./internal/obs/store
	$(GO) test -count=1 -run 'TestQueryGolden|TestQueryCLISmoke|TestExploreRecordAggBitIdentical' ./cmd/taskgrind

# Regression guards: re-measures the compiled engine's hot ns/block (fails
# on >20% regression), the ckpt-16 arm's journal and state-mark overhead
# ratio (fails at 1.5x the recorded ratio), daemon throughput (fails below
# 1/1.5 of the recorded jobs/sec) and the warm translation store's
# end-to-end speedup (fails unless warm compiled beats IR end to end,
# recorded and fresh) against the baseline recorded in BENCH_perf.json by
# `make bench-perf` / `make bench-serve` (best-of-3, so only a real
# slowdown trips any of them), and bounds the recording overhead below 2x
# (the median ratio of 9 interleaved store/ring pairs).
perf-guard:
	PERF_GUARD=1 $(GO) test -count=1 -run 'TestHotPerfRegression|TestCkptOverheadRegression|TestRecordingOverheadRegression|TestServeThroughputRegression|TestWarmStoreE2ERegression' .

clean:
	rm -f BENCH_obs.json BENCH_perf.json
