package tstore_test

import (
	"testing"

	"repro/internal/dbi"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/tstore"
	"repro/internal/vex"
	"repro/internal/vm"
)

// countingSink instruments through InstrumentAccesses and counts the
// accesses delivered to it.
type countingSink struct {
	dbi.NopTool
	accesses int
}

func (cs *countingSink) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	out, _, _ := c.InstrumentAccesses(sb, cs)
	return out
}

// FlushAccesses implements dbi.AccessSink.
func (cs *countingSink) FlushAccesses(_ *vm.Thread, b dbi.Batch) { cs.accesses += b.Len() }

// TestAdoptionSharesCode runs a self-looping block that loads and stores on
// a publishing core, then on a second core attached to the same store. The
// adopter must share the published unit's micro-ops and side tables (the
// same arrays, not copies), own a call table of its own, and deliver its
// flushes to its own tool instance, never to the publisher's.
func TestAdoptionSharesCode(t *testing.T) {
	b := gbuild.New()
	arr := b.Global("arr", 64)
	f := b.Func("main", "adopt.c")
	head := f.NewLabel()
	f.Bind(head)
	f.Ld(8, guest.R2, guest.R6, 0)
	f.Addi(guest.R2, guest.R2, 1)
	f.St(8, guest.R6, 0, guest.R2)
	f.Jmp(head)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	store := tstore.NewStore(tstore.Key{Image: tstore.ImageHash(im), Tool: "counting"})
	// run executes n blocks on a fresh core attached to the store.
	run := func(n int) (*dbi.Core, *countingSink, func(int)) {
		m, err := vm.New(im, vm.NewHostRegistry(), vm.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sink := &countingSink{}
		core := dbi.New(m, sink)
		core.Shared = store
		th := m.Threads()[0]
		th.Regs[guest.R6] = arr
		step := func(n int) {
			for range n {
				if _, err := m.Eng.RunBlock(m, th); err != nil {
					t.Fatal(err)
				}
			}
		}
		step(n)
		return core, sink, step
	}

	addr := guest.TextBase
	pub, pubSink, pubStep := run(1)
	u := store.Get(addr)
	if pub.Translations != 1 || u == nil || u.Code != pub.BlockCode(addr) {
		t.Fatalf("the publisher translated %d blocks and published %v", pub.Translations, u)
	}
	if len(u.Code.Calls) == 0 {
		t.Fatal("the published unit has no dirty calls")
	}
	adopter, adSink, adStep := run(1)
	if adopter.Translations != 0 || adopter.SharedHits != 1 {
		t.Fatalf("adopter: %d translations, %d shared hits; want 0 and 1", adopter.Translations, adopter.SharedHits)
	}
	code := adopter.BlockCode(addr)
	if code == u.Code {
		t.Fatal("the adopter runs the publisher's code, call table included")
	}
	if &code.Ops[0] != &u.Code.Ops[0] || &code.PCs[0] != &u.Code.PCs[0] || &code.ICs[0] != &u.Code.ICs[0] {
		t.Error("the adopter copied the unit's ops or side tables instead of sharing them")
	}
	if len(code.Calls) != len(u.Code.Calls) || &code.Calls[0] == &u.Code.Calls[0] {
		t.Error("the adopter shares the unit's call table")
	}

	// One block is one load and one store.
	if pubSink.accesses != 2 || adSink.accesses != 2 {
		t.Fatalf("after one block each: publisher saw %d accesses, adopter %d; want 2 and 2",
			pubSink.accesses, adSink.accesses)
	}
	adStep(5)
	if pubSink.accesses != 2 || adSink.accesses != 12 {
		t.Errorf("after 5 adopter blocks: publisher saw %d accesses, adopter %d; want 2 and 12",
			pubSink.accesses, adSink.accesses)
	}
	pubStep(3)
	if pubSink.accesses != 8 || adSink.accesses != 12 {
		t.Errorf("after 3 publisher blocks: publisher saw %d accesses, adopter %d; want 8 and 12",
			pubSink.accesses, adSink.accesses)
	}
}
