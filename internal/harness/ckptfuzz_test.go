package harness_test

// Checkpoint/resume fuzz over Table I (DataRaceBench) programs. The system's
// resume primitive is deterministic re-execution under a recorded journal:
// the "resumed" run must walk the recorded timeline — every scheduler pick,
// every state mark at its randomly drawn block-boundary cadence — and land
// on a bit-identical final state (guest memory hash and resident pages,
// machine counters, rendered tool report), on both execution engines.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/drb"
	"repro/internal/harness"
	"repro/internal/snapshot"
)

func TestCheckpointResumeFuzzDRB(t *testing.T) {
	progs := []string{
		"027-taskdependmissing-orig",
		"072-taskdep1-orig",
		"106-taskwaitmissing-orig",
		"123-taskundeferred-orig",
	}
	rng := rand.New(rand.NewSource(99))
	for _, name := range progs {
		bm, ok := drb.ByName(name)
		if !ok {
			t.Fatalf("unknown DRB program %s", name)
		}
		for _, eng := range []string{dbi.EngineIR, dbi.EngineCompiled} {
			for trial := 0; trial < 3; trial++ {
				// Random seed, timeslice length and mark cadence:
				// together they place marks at effectively random block
				// boundaries of random interleavings.
				seed := uint64(1 + rng.Intn(50))
				slice := 1 + rng.Intn(6)
				every := 1 + rng.Intn(9)

				run := func(j *snapshot.Journal) (*harness.Instance, string) {
					tl := core.New(core.Options{})
					res, inst, err := harness.BuildAndRun(bm.Build(), harness.Setup{
						Tool: tl, Seed: seed, Threads: 4, Slice: slice,
						Engine: eng, Journal: j,
					})
					if err != nil {
						t.Fatalf("%s %s seed=%d: %v", name, eng, seed, err)
					}
					if res.Err != nil {
						t.Fatalf("%s %s seed=%d: run failed: %v", name, eng, seed, res.Err)
					}
					return inst, tl.Reports.String()
				}

				rec := snapshot.NewJournal()
				rec.MarkEvery = every
				instA, reportA := run(rec)
				v := rec.Verifier(false)
				instB, reportB := run(v)

				if d := v.Err(); d != nil {
					t.Fatalf("%s %s seed=%d slice=%d every=%d: resume diverged: %v",
						name, eng, seed, slice, every, d)
				}
				if got, want := v.MarksMatched(), len(rec.Marks()); got != want {
					t.Fatalf("%s %s seed=%d: resume matched %d/%d marks",
						name, eng, seed, got, want)
				}
				if a, b := instA.M.Mem.Hash(), instB.M.Mem.Hash(); a != b {
					t.Fatalf("%s %s seed=%d: final guest memory differs: %#x vs %#x",
						name, eng, seed, a, b)
				}
				if a, b := instA.M.Mem.ResidentPages(), instB.M.Mem.ResidentPages(); a != b {
					t.Fatalf("%s %s seed=%d: resident pages differ: %d vs %d",
						name, eng, seed, a, b)
				}
				if a, b := instA.M.StateDigest(), instB.M.StateDigest(); a != b {
					t.Fatalf("%s %s seed=%d: final machine state differs: %#x vs %#x",
						name, eng, seed, a, b)
				}
				if instA.M.BlocksExecuted != instB.M.BlocksExecuted ||
					instA.M.InstrsExecuted != instB.M.InstrsExecuted ||
					instA.M.ExitCode() != instB.M.ExitCode() {
					t.Fatalf("%s %s seed=%d: counters differ: blocks %d/%d instrs %d/%d exit %d/%d",
						name, eng, seed,
						instA.M.BlocksExecuted, instB.M.BlocksExecuted,
						instA.M.InstrsExecuted, instB.M.InstrsExecuted,
						instA.M.ExitCode(), instB.M.ExitCode())
				}
				if reportA != reportB {
					t.Fatalf("%s %s seed=%d: tool reports differ:\n--- record\n%s\n--- resume\n%s",
						name, eng, seed, reportA, reportB)
				}
			}
		}
	}
}

// TestCheckpointResumeCrossEngine: the two engines execute the same recorded
// timeline — a journal recorded on the compiled engine verifies cleanly on
// the IR oracle, digests included (the engines are bit-identical, which is
// what makes state marks valid cross-engine probes).
func TestCheckpointResumeCrossEngine(t *testing.T) {
	bm, ok := drb.ByName("027-taskdependmissing-orig")
	if !ok {
		t.Fatal("missing DRB program")
	}
	run := func(eng string, j *snapshot.Journal) string {
		tl := core.New(core.Options{})
		res, _, err := harness.BuildAndRun(bm.Build(), harness.Setup{
			Tool: tl, Seed: 5, Threads: 4, Slice: 3,
			Engine: eng, Journal: j,
		})
		if err != nil || res.Err != nil {
			t.Fatalf("%s: %v %v", eng, err, res.Err)
		}
		return tl.Reports.String()
	}
	rec := snapshot.NewJournal()
	rec.MarkEvery = 4
	reportC := run(dbi.EngineCompiled, rec)
	v := rec.Verifier(false)
	reportI := run(dbi.EngineIR, v)
	if d := v.Err(); d != nil {
		t.Fatalf("IR resume of a compiled-engine recording diverged: %v", d)
	}
	if reportC != reportI {
		t.Fatalf("cross-engine reports differ:\n--- compiled\n%s\n--- ir\n%s", reportC, reportI)
	}
}
