GO ?= go

.PHONY: check vet build test race replay-determinism tstore-equiv store-chaos lock-matrix bench-obs bench-perf bench-perf-smoke bench-rec bench-serve bench-smoke loadtest perf-guard query-smoke fuzz clean

# The full gate: vet, build, tests under the race detector, the
# replay-determinism gate, the
# translation-store equivalence gate, the multi-process store chaos soak,
# the fuzzer smoke runs, both benchmark smoke runs (BENCH_obs.json;
# bench-perf-smoke does not overwrite the recorded BENCH_perf.json), the
# record-and-query smoke, the daemon load + chaos-soak tests, the six-tool
# lock verdict-matrix gate, the benchmark-module smoke, and the hot-path +
# journal-overhead + recording-overhead + serve-throughput + warm-store +
# cross-process-warm regression guards against the recorded baseline.
check: vet build race replay-determinism tstore-equiv store-chaos lock-matrix fuzz bench-obs bench-perf-smoke bench-smoke query-smoke loadtest perf-guard

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

# Replay-determinism gate: journal-verified resume fuzz over the Table I
# programs, at random state-mark cadences, on the compiled engine and its IR
# oracle; two runs recording one mark stream; the supervisor's
# crash-reproduction and fallback paths; the CLI's byte-for-byte -replay
# round trip, one replay token per configuration across the CLI, the daemon
# and explore sweeps, and daemon job output byte-identical to an
# independent run's. Fresh run (-count=1) so the gate never passes on a
# cached result.
replay-determinism:
	$(GO) test -count=1 -run 'TestCheckpointResume|TestCheckpointStreamsDeterministic|TestSupervisor|TestBisect|TestSupervisedReplay|TestJournal' ./internal/harness ./internal/vm ./internal/snapshot
	$(GO) test -count=1 -run 'TestReplayToken|TestOnPanicFallback|TestTokenIdentity' ./cmd/taskgrind
	$(GO) test -count=1 -run 'TestFrontEndParity' ./internal/serve

# Translation-store equivalence gate: the tstore unit suite (encode
# roundtrips, persistent-tier invalidation, torn-tail recovery) under -race,
# plus the store-equivalence differential smoke — cold vs shared-cold vs
# warm vs disk-warm compiled runs bit-identical, with the same footprint
# model, and the IR oracle storeless beside them, the crash-report and
# invalidation cases, the 16-worker shared-store race test and the sweep
# amortization counter check — and the pinned digest of every unit the
# Table I suite and racy LULESH publish (TestTranslationEncodingPinned).
# Fresh run (-count=1) so the gate never passes on a cached result.
tstore-equiv:
	$(GO) test -race -count=1 ./internal/tstore
	$(GO) test -race -count=1 -run 'TestStoreEquivalence|TestStoreInvalidation|TestStoreConcurrentWorkers|TestSweepAmortization|TestJobsShareTranslationStore|TestTranslationEncodingPinned' . ./internal/serve ./internal/tstore

# Multi-process store chaos soak, race-enabled: N taskgrind processes plus
# an in-process daemon share one -tcache-dir while victims are SIGKILLed
# mid-run and the rest run under injected storage faults (EIO, ENOSPC,
# short writes, bit flips, lock starvation). Every surviving run must be
# byte-identical to a storeless cold run, the eviction cap must hold, and
# the directory must stay warm-adoptable afterwards. STORE_CHAOS=1 scales
# the fleet up. Fresh run (-count=1) so the gate never passes on a cached
# result.
store-chaos:
	$(GO) test -race -count=1 -run 'TestStoreChaosSoak' .

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
# assembler, the instruction decoder, and the translation-store frame
# protocol (the scan that untrusted cache files pass through); plus the
# guest-memory model (strict loads and stores through the software TLB
# against a byte map and region list); plus Algorithm 1's candidate sweep
# against the all-pairs loop on synthetic segments. Go runs one -fuzz
# package at a time, hence five invocations.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzAssemble' -fuzztime 5s ./internal/gasm
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 5s ./internal/guest
	$(GO) test -run '^$$' -fuzz 'FuzzFrameScan' -fuzztime 5s ./internal/tstore
	$(GO) test -run '^$$' -fuzz 'FuzzMemoryModel' -fuzztime 5s ./internal/gmem
	$(GO) test -run '^$$' -fuzz 'FuzzAnalysisSweep' -fuzztime 5s ./internal/core

# One short iteration of the observability benchmark; the metrics snapshot
# of the full-stack variant lands in BENCH_obs.json.
bench-obs:
	OBS_BENCH_OUT=BENCH_obs.json $(GO) test -run '^$$' -bench 'BenchmarkObservability' -benchtime 1x .

# Engine comparison on the Table I suite (IR interpreter vs compiled
# micro-op engine, cold and warm from a primed translation store), the
# journal and state-mark overhead arms (ckpt-16, ckpt-4), the
# lock-contention comparison, and the translation-store contention
# comparison (cold vs warm-in-memory vs warm-across-process vs warm under
# flock contention); writes the
# "engines", "robustness", "locks" and "tstore" sections of
# BENCH_perf.json. Longer -benchtime accumulates more samples and tightens
# the numbers.
bench-perf:
	PERF_BENCH_OUT=BENCH_perf.json $(GO) test -run '^$$' -bench 'BenchmarkPerfEngines|BenchmarkRobustness|BenchmarkLockContention|BenchmarkTStoreContention' -benchtime 10x .

# Smoke run for the gate: exercises every arm once, no JSON output.
bench-perf-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPerfEngines|BenchmarkRobustness|BenchmarkRecording|BenchmarkLockContention|BenchmarkTStoreContention' -benchtime 1x .

# The repository benchmark (bench/) is its own Go module built against this
# one through a replace directive, so root `go test ./...` never compiles
# it: vet and smoke-test it here so a change to an exported name it uses
# cannot break it unnoticed.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Recording-overhead comparison (ring sink vs columnar run store on the
# observability workload); writes the "recording" section of BENCH_perf.json.
bench-rec:
	PERF_BENCH_OUT=BENCH_perf.json $(GO) test -run '^$$' -bench 'BenchmarkRecording' -benchtime 3x .

# Daemon throughput (jobs/sec + p99 queue wait on a 200-job task.c sweep
# through the serve worker pool); writes the "serve" section of
# BENCH_perf.json.
bench-serve:
	PERF_BENCH_OUT=BENCH_perf.json $(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime 3x .

# Daemon robustness under load: the pure-volume load test (thousands of
# small jobs; LOADTEST=1 raises the volume) and the chaos soak (hundreds of
# concurrent fault-injected jobs; the daemon must stay healthy, classify
# every failure with a replay token, and reproduce crashes byte-for-byte on
# token re-submission). Fresh run (-count=1) so the gate never passes on a
# cached result.
loadtest:
	LOADTEST=1 $(GO) test -count=1 -run 'TestServeLoad' .
	$(GO) test -count=1 -run 'TestChaosSoak' ./internal/serve

# Record-and-query smoke: a short sweep into a throwaway store, then every
# query verb against it. Exercises the CLI end to end, including the golden
# and cross-seed-aggregation acceptance tests. Fresh run (-count=1) so the
# gate never passes on a cached result.
query-smoke:
	$(GO) test -count=1 -run 'TestQueryGolden|TestQueryCLISmoke|TestExploreRecordAggBitIdentical' ./cmd/taskgrind

# Regression guards: re-measures the compiled engine's hot ns/block (fails
# on >20% regression), the ckpt-16 arm's journal and state-mark overhead
# ratio (fails at 1.5x the recorded ratio), daemon throughput (fails below
# 1/1.5 of the recorded jobs/sec), the warm translation store's end-to-end speedup
# (fails unless warm compiled beats IR end to end, recorded and fresh) and
# the cross-process warm start (fails if a fresh process sweeping over a
# primed cache directory costs more than 1.2x one already warm in memory)
# against the baseline recorded in BENCH_perf.json by `make bench-perf` /
# `make bench-serve` (best-of-3, so only a real slowdown trips any of them).
perf-guard:
	PERF_GUARD=1 $(GO) test -count=1 -run 'TestHotPerfRegression|TestCkptOverheadRegression|TestRecordingOverheadRegression|TestServeThroughputRegression|TestWarmStoreE2ERegression|TestWarmCrossProcessRegression' .

clean:
	rm -f BENCH_obs.json BENCH_perf.json
