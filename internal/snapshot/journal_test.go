package snapshot

import "testing"

func TestJournalRecordVerifyAgree(t *testing.T) {
	j := NewJournal()
	decisions := []struct {
		tid       int
		perturbed bool
	}{{0, false}, {1, true}, {1, false}, {0, false}}
	for i, d := range decisions {
		if err := j.Slice(uint64(i), d.tid, d.perturbed); err != nil {
			t.Fatal(err)
		}
	}
	j.Fire(2, false)
	j.Fire(2, true)
	j.AddMark(Mark{Slice: 3, Blocks: 12, Digest: 0xabc})
	j.MarkEvery = 3

	v := j.Verifier(false)
	if v.MarkEvery != 3 {
		t.Fatalf("verifier mark cadence %d, recorded 3", v.MarkEvery)
	}
	for i, d := range decisions {
		if err := v.Slice(uint64(i), d.tid, d.perturbed); err != nil {
			t.Fatalf("faithful replay diverged at %d: %v", i, err)
		}
	}
	if err := v.Fire(2, false); err != nil {
		t.Fatal(err)
	}
	if err := v.Fire(2, true); err != nil {
		t.Fatal(err)
	}
	if err := v.AddMark(Mark{Slice: 3, Blocks: 12, Digest: 0xabc}); err != nil {
		t.Fatal(err)
	}
	// Running past the recording is allowed (replay continues beyond the
	// recorded crash window).
	if err := v.Slice(4, 1, false); err != nil {
		t.Fatal(err)
	}
	if v.Err() != nil {
		t.Fatalf("unexpected divergence: %v", v.Err())
	}
}

func TestJournalDetectsDivergence(t *testing.T) {
	j := NewJournal()
	j.Slice(0, 0, false)
	j.Slice(1, 1, false)

	v := j.Verifier(false)
	v.Slice(0, 0, false)
	err := v.Slice(1, 0, false) // recorded t1, replayed t0
	if err == nil {
		t.Fatal("pick divergence not detected")
	}
	d, ok := err.(*Divergence)
	if !ok || d.What != "pick" || d.Slice != 1 {
		t.Fatalf("divergence = %+v", err)
	}

	// Perturb mismatch on the same pick.
	v2 := j.Verifier(false)
	if err := v2.Slice(0, 0, true); err == nil {
		t.Fatal("perturb divergence not detected")
	}

	// Fire mismatch.
	j2 := NewJournal()
	j2.Fire(1, true)
	v3 := j2.Verifier(false)
	if err := v3.Fire(1, false); err == nil {
		t.Fatal("fire divergence not detected")
	}

	// Mark mismatch.
	j3 := NewJournal()
	j3.AddMark(Mark{Slice: 5, Digest: 1})
	v4 := j3.Verifier(false)
	if err := v4.AddMark(Mark{Slice: 5, Digest: 2}); err == nil {
		t.Fatal("mark divergence not detected")
	}
}

func TestJournalSoftModeRecordsWithoutFailing(t *testing.T) {
	j := NewJournal()
	j.Slice(0, 0, false)
	j.Slice(1, 1, false)

	v := j.Verifier(true)
	if err := v.Slice(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := v.Slice(1, 0, false); err != nil {
		t.Fatalf("soft mode returned error: %v", err)
	}
	if v.Err() == nil || v.Err().Slice != 1 {
		t.Fatalf("soft divergence not recorded: %+v", v.Err())
	}
	// Later decisions are suppressed, first divergence retained.
	v.Slice(2, 1, true)
	if v.Err().Slice != 1 {
		t.Fatal("first divergence not sticky")
	}
}

func TestJournalFirePrefixSemantics(t *testing.T) {
	// A replay that draws more decisions for a kind than recorded (or from
	// a kind never recorded) is a consistent prefix extension, not a
	// divergence — the IR fallback path depends on this.
	j := NewJournal()
	j.Fire(0, true)
	v := j.Verifier(false)
	if err := v.Fire(0, true); err != nil {
		t.Fatal(err)
	}
	if err := v.Fire(0, false); err != nil {
		t.Fatalf("past-prefix draw flagged: %v", err)
	}
	if err := v.Fire(9, true); err != nil {
		t.Fatalf("unrecorded kind flagged: %v", err)
	}
	if v.Err() != nil {
		t.Fatalf("unexpected divergence: %v", v.Err())
	}
}
