package tstore_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/tools/toolreg"
	"repro/internal/tstore"
	"repro/internal/vex"
)

// pinnedDigest is the SHA-256 over the encoded units of the runs below. A
// change to translation, optimization, instrumentation or lowering that
// alters any published unit — its compiled code or the statement count of
// the IR behind it — changes it. Re-pin only for a change that means to
// translate differently, and say why.
const pinnedDigest = "14d981d7c996255f5342f36dc15acb005c08cc3702b451737cc14ef97c3f01cc"

// TestTranslationEncodingPinned runs the Table I suite under the three
// tools that instrument through InstrumentAccesses, and racy LULESH under
// Taskgrind, each with a fresh in-memory translation store, and hashes the
// encoding of every unit each run publishes, in address order. A unit is
// the compiled code, so the digest covers the whole pipeline: Translate,
// Optimize, InstrumentAccesses and Compile.
func TestTranslationEncodingPinned(t *testing.T) {
	h := sha256.New()
	var units, stmts int
	run := func(name string, b *gbuild.Builder, tool string, threads int) {
		im, err := b.Link()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tl, _, err := toolreg.Make(tool)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := harness.New(harness.Setup{
			Image: im, Tool: tl, Seed: 1, Threads: threads, TStore: tstore.NewCache(""),
		})
		if err != nil {
			t.Fatalf("%s %s: %v", name, tool, err)
		}
		if res := inst.Run(); res.Err != nil {
			t.Fatalf("%s %s: %v", name, tool, res.Err)
		}
		for _, u := range inst.Core.Shared.Units() {
			var e enc
			encodeUnit(&e, u)
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(e.buf)))
			h.Write(n[:])
			h.Write(e.buf)
			units++
			stmts += u.Code.NStmts
		}
	}
	for _, bm := range drb.All() {
		for _, tool := range []string{"taskgrind", "memcheck", "lockgrind"} {
			run(bm.Name, bm.Build(), tool, 4)
		}
	}
	b, err := lulesh.Build(lulesh.Params{S: 4, TEL: 8, TNL: 8, Iters: 1, Racy: true})
	if err != nil {
		t.Fatal(err)
	}
	run("lulesh", b, "taskgrind", 1)

	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d units, %d statements, digest %s", units, stmts, got)
	if got != pinnedDigest {
		t.Errorf("translation encoding digest %s, pinned %s", got, pinnedDigest)
	}
}

// The unit encoding the digest is taken over: a varint stream of the
// unit's address followed by its compiled code.

// enc is an append-only varint stream.
type enc struct {
	buf []byte
}

func (e *enc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// encodeUnit serializes a unit.
func encodeUnit(e *enc, u *tstore.Unit) {
	e.u64(u.Addr)
	encCompiled(e, u.Code)
}

func encCompiled(e *enc, c *vex.Compiled) {
	e.u64(c.GuestAddr)
	e.u64(uint64(c.NFrame))
	e.u64(uint64(c.NInstrs))
	e.u64(c.LastPC)
	e.u64(uint64(c.NextKind))
	e.u64(c.NextImm)
	e.u64(uint64(c.NextIdx))
	e.u64(uint64(c.NextJK))
	e.i64(int64(c.Aux))
	e.u64(uint64(c.NStmts))
	e.u64(uint64(len(c.Ops)))
	for i := range c.Ops {
		u := &c.Ops[i]
		e.u64(uint64(u.Code))
		e.u64(uint64(u.Wd))
		e.u64(uint64(u.Op))
		e.u64(uint64(u.Dst))
		e.u64(uint64(u.A))
		e.u64(uint64(u.B))
		e.u64(u.Imm)
		if u.Dirty == nil {
			e.u64(0)
			continue
		}
		e.u64(1)
		dd := u.Dirty
		e.str(dd.Name)
		e.u64(uint64(len(dd.Args)))
		for _, a := range dd.Args {
			e.u64(uint64(a.Kind))
			e.u64(uint64(a.Idx))
			e.u64(a.Imm)
		}
		e.u64(uint64(len(dd.Meta)))
		for _, m := range dd.Meta {
			e.u64(m)
		}
		e.u64(uint64(dd.Tmp))
		if dd.HasTmp {
			e.u64(1)
		} else {
			e.u64(0)
		}
		e.u64(uint64(dd.InstrsBefore))
	}
	// PCs are near-monotone guest addresses: delta-encode them. ICs are
	// small monotone counts.
	prev := uint64(0)
	for _, pc := range c.PCs {
		e.i64(int64(pc) - int64(prev))
		prev = pc
	}
	for _, ic := range c.ICs {
		e.u64(uint64(ic))
	}
}
