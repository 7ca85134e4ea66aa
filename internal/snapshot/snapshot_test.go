package snapshot

import (
	"testing"

	"repro/internal/gmem"
)

func page(idx uint64, fill byte) gmem.PageDump {
	d := make([]byte, gmem.PageSize)
	for i := range d {
		d[i] = fill
	}
	return gmem.PageDump{Idx: idx, Data: d}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Seq: 3, Slices: 100, Blocks: 400, Instrs: 2000, RNG: 0xdeadbeef,
		Threads: []ThreadState{{ID: 0, PC: 0x40, Instrs: 17,
			CallStack: []Frame{{Fn: 0x10, CallSite: 0x44, SP: 0x7000}}}},
		Pages:   []gmem.PageDump{page(5, 0xaa)},
		Regions: []gmem.Region{{Lo: 0x1000, Hi: 0x2000, Perm: gmem.PermRW}},
	}
	cp.Threads[0].Regs[3] = 42
	cp.Digest = cp.ComputeDigest()

	enc, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Diff(got); err != nil {
		t.Fatalf("round-trip diff: %v", err)
	}
	if got.Pages[0].Data[0] != 0xaa || got.Regions[0].Perm != gmem.PermRW {
		t.Fatal("payload lost in round trip")
	}
}

func TestCheckpointDiffDetectsDivergence(t *testing.T) {
	a := &Checkpoint{Slices: 10, Threads: []ThreadState{{ID: 0, PC: 0x40}}}
	a.Digest = a.ComputeDigest()
	b := &Checkpoint{Slices: 10, Threads: []ThreadState{{ID: 0, PC: 0x44}}}
	b.Digest = b.ComputeDigest()
	if err := a.Diff(b); err == nil {
		t.Fatal("PC divergence not detected")
	}
	c := &Checkpoint{Slices: 11, Threads: []ThreadState{{ID: 0, PC: 0x40}}}
	if err := a.Diff(c); err == nil {
		t.Fatal("position divergence not detected")
	}
}

func TestManagerBoundedRetentionFoldsIntoBase(t *testing.T) {
	mgr := NewManager(2)
	mgr.SetBase([]gmem.PageDump{page(1, 0x01)}, nil)

	cp1 := &Checkpoint{Seq: 1, Pages: []gmem.PageDump{page(1, 0x11), page(2, 0x22)}}
	cp2 := &Checkpoint{Seq: 2, Pages: []gmem.PageDump{page(3, 0x33)}}
	cp3 := &Checkpoint{Seq: 3, Pages: []gmem.PageDump{page(2, 0x99)}}
	mgr.Add(cp1)
	mgr.Add(cp2)
	mgr.Add(cp3) // evicts cp1 into the base

	if got := len(mgr.Checkpoints()); got != 2 {
		t.Fatalf("retained %d checkpoints, want 2", got)
	}
	if mgr.Taken != 3 || mgr.Dropped != 1 {
		t.Fatalf("taken/dropped = %d/%d", mgr.Taken, mgr.Dropped)
	}
	if mgr.Latest() != cp3 {
		t.Fatal("Latest is not the newest checkpoint")
	}

	// At cp2, page 1 comes from the folded cp1 delta, page 2 from cp1,
	// page 3 from cp2 itself.
	full := mgr.PagesAt(cp2)
	if full[1][0] != 0x11 || full[2][0] != 0x22 || full[3][0] != 0x33 {
		t.Fatalf("PagesAt(cp2) = %#x %#x %#x", full[1][0], full[2][0], full[3][0])
	}
	// At cp3, page 2 is overridden by cp3's delta.
	if full := mgr.PagesAt(cp3); full[2][0] != 0x99 {
		t.Fatalf("PagesAt(cp3)[2] = %#x", full[2][0])
	}
	if d, ok := mgr.PageAt(cp2, 2); !ok || d[0] != 0x22 {
		t.Fatalf("PageAt(cp2, 2) = %v %#x", ok, d[0])
	}
	if _, ok := mgr.PageAt(cp2, 77); ok {
		t.Fatal("untouched page reported present")
	}
}

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

	v := j.Verifier(false)
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
