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
)

// pinnedDigest is the SHA-256 over the encoded units of the runs below. A
// change to translation, optimization, instrumentation or lowering that
// alters any published unit — IR or compiled code — changes it. Re-pin only
// for a change that means to translate differently, and say why.
const pinnedDigest = "cce38c1f36d5a59bcd9cbe0c069a9e6cac643a83d559d704e609b8a5b40d8bd0"

// TestTranslationEncodingPinned runs the Table I suite under the three
// tools that instrument through InstrumentAccesses, and racy LULESH under
// Taskgrind, each with a fresh in-memory translation store, and hashes the
// encoding of every unit each run publishes, in address order. Every unit
// carries its compiled form, so the digest covers the whole pipeline:
// Translate, Optimize, InstrumentAccesses and Compile.
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
			if u.Code == nil {
				t.Fatalf("%s %s: unit 0x%x published without compiled code", name, tool, u.Addr)
			}
			enc := tstore.EncodeUnit(u)
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(enc)))
			h.Write(n[:])
			h.Write(enc)
			units++
			stmts += len(u.SB.Stmts)
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
