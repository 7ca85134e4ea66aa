package vm_test

import (
	"errors"
	"testing"

	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// runWithMarks runs a fresh pure-guest accumulator machine (main sums
// 0..199 into a global and exits with the total) under a recording journal
// with a state mark every `every` slices, and returns the marks.
func runWithMarks(t *testing.T, every int) []snapshot.Mark {
	t.Helper()
	b := gbuild.New()
	b.Global("acc", 8)
	f := b.Func("main", "s.c")
	loop := f.NewLabel()
	f.Ldi(guest.R3, 0)
	f.Bind(loop)
	f.LoadSym(guest.R1, "acc")
	f.Ld(8, guest.R2, guest.R1, 0)
	f.Add(guest.R2, guest.R2, guest.R3)
	f.St(8, guest.R1, 0, guest.R2)
	f.Addi(guest.R3, guest.R3, 1)
	f.Ldi(guest.R4, 200)
	f.Blt(guest.R3, guest.R4, loop)
	f.LoadSym(guest.R1, "acc")
	f.Ld(8, guest.R0, guest.R1, 0)
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(im, nil, vm.Config{Seed: 7, Slice: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Journal = snapshot.NewJournal()
	m.Journal.MarkEvery = every
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.ExitCode(), uint64(199*200/2); got != want {
		t.Fatalf("exit %d, want %d", got, want)
	}
	return m.Journal.Marks()
}

// TestCheckpointStreamsDeterministic: two runs of one configuration record
// the same mark stream, at the cadence the journal asked for.
func TestCheckpointStreamsDeterministic(t *testing.T) {
	a, b := runWithMarks(t, 5), runWithMarks(t, 5)
	if len(a) != len(b) || len(a) < 3 {
		t.Fatalf("mark counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mark %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if every1 := runWithMarks(t, 1); len(every1) < 5*len(a) {
		t.Fatalf("%d marks at cadence 1, %d at cadence 5", len(every1), len(a))
	}
}

func TestJournalVerifiesFaithfulReplay(t *testing.T) {
	im := buildSpawner(t)
	run := func(j *snapshot.Journal, perturb func() bool) (*vm.Machine, error) {
		h := &testHost{}
		reg := vm.NewHostRegistry()
		h.install(reg, im)
		m, err := vm.New(im, reg, vm.Config{Seed: 11, Slice: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.Journal = j
		m.Perturb = perturb
		return m, m.Run()
	}

	rec := snapshot.NewJournal()
	m1, err := run(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("nothing recorded")
	}

	// Same config replays without divergence.
	v := rec.Verifier(false)
	m2, err := run(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Err() != nil {
		t.Fatalf("faithful replay diverged: %v", v.Err())
	}
	if m1.ExitCode() != m2.ExitCode() || m1.Mem.Hash() != m2.Mem.Hash() {
		t.Fatal("replayed run ended in a different state")
	}

	// A perturbed replay diverges, and the error surfaces at the slice
	// boundary as *snapshot.Divergence.
	v2 := rec.Verifier(false)
	_, err = run(v2, func() bool { return true })
	var div *snapshot.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("perturbed replay returned %v, want *snapshot.Divergence", err)
	}
	if div.What != "perturb" && div.What != "pick" {
		t.Fatalf("divergence stream = %q", div.What)
	}

	// Soft mode records the divergence but lets the run finish.
	v3 := rec.Verifier(true)
	if _, err := run(v3, func() bool { return true }); err != nil {
		t.Fatalf("soft replay failed: %v", err)
	}
	if v3.Err() == nil {
		t.Fatal("soft divergence not recorded")
	}
}
