package gbuild

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/guest"
)

func TestBuildLinkSmallProgram(t *testing.T) {
	b := New()
	b.Global("counter", 8)
	b.GlobalString("msg", "hi")
	f := b.Func("main", "t.c")
	f.Line(1)
	f.Ldi(guest.R0, 5)
	l := f.NewLabel()
	f.Bind(l)
	f.Line(2)
	f.Addi(guest.R0, guest.R0, -1)
	f.Ldi(guest.R1, 0)
	f.Bne(guest.R0, guest.R1, l)
	f.Hlt(guest.R0)

	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if im.Entry != guest.TextBase {
		t.Errorf("entry = %#x", im.Entry)
	}
	if s := im.SymbolByName("counter"); s == nil || s.Kind != guest.SymObject {
		t.Error("counter symbol missing")
	}
	if file, line := im.LineFor(im.Entry); file != "t.c" || line != 1 {
		t.Errorf("line info = %s:%d", file, line)
	}
	// The backward branch must point at the bind site (instruction 1).
	in, err := im.FetchInstr(guest.TextBase + 3*guest.InstrBytes)
	if err != nil || in.Op != guest.OpBne {
		t.Fatalf("expected bne, got %v (%v)", in, err)
	}
	if uint64(uint32(in.Imm)) != guest.TextBase+1*guest.InstrBytes {
		t.Errorf("branch target = %#x", uint32(in.Imm))
	}
}

// TestEmptyFuncSize: a function that emits no instruction has size 0, not
// its start subtracted from 0.
func TestEmptyFuncSize(t *testing.T) {
	b := New()
	f := b.Func("main", "t.c")
	f.Ldi(guest.R0, 0)
	f.Hlt(guest.R0)
	b.Func("nothing", "t.c")
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if s := im.SymbolByName("nothing"); s == nil || s.Addr != guest.TextBase+2*guest.InstrBytes || s.Size != 0 {
		t.Errorf("nothing = %+v, want size 0 at %#x", s, guest.TextBase+2*guest.InstrBytes)
	}
	if s := im.SymbolByName("main"); s == nil || s.Size != 2*guest.InstrBytes {
		t.Errorf("main = %+v, want size %d", s, 2*guest.InstrBytes)
	}
}

func TestForwardLabelAndCallFixups(t *testing.T) {
	b := New()
	f := b.Func("main", "t.c")
	done := f.NewLabel()
	f.Ldi(guest.R0, 1)
	f.Jmp(done)
	f.Ldi(guest.R0, 99) // skipped
	f.Bind(done)
	f.Call("leaf")
	f.Hlt(guest.R0)
	g := b.Func("leaf", "t.c")
	g.Addi(guest.R0, guest.R0, 1)
	g.Ret()

	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	leaf := im.SymbolByName("leaf")
	if leaf == nil {
		t.Fatal("no leaf symbol")
	}
	// jal must target leaf.
	jal, _ := im.FetchInstr(guest.TextBase + 3*guest.InstrBytes)
	if jal.Op != guest.OpJal || uint64(uint32(jal.Imm)) != leaf.Addr {
		t.Errorf("jal = %v, leaf at %#x", jal, leaf.Addr)
	}
}

func TestUndefinedSymbolFails(t *testing.T) {
	b := New()
	f := b.Func("main", "t.c")
	f.Call("nowhere")
	f.Hlt(guest.R0)
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Fatalf("want undefined-symbol error, got %v", err)
	}
}

func TestMissingEntryFails(t *testing.T) {
	b := New()
	f := b.Func("notmain", "t.c")
	f.Ret()
	if _, err := b.Link(); err == nil {
		t.Fatal("want missing-entry error")
	}
}

func TestDuplicateGlobalFails(t *testing.T) {
	b := New()
	b.Global("x", 8)
	b.Global("x", 8)
	f := b.Func("main", "t.c")
	f.Hlt(guest.R0)
	if _, err := b.Link(); err == nil || !strings.Contains(err.Error(), "duplicate global") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestLdConst64(t *testing.T) {
	b := New()
	f := b.Func("main", "t.c")
	f.LdConst64(guest.R0, 42)             // fits: 1 instr
	f.LdConst64(guest.R1, 0x123456789abc) // needs ldi+ldih
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(im.Text); n != 4 {
		t.Errorf("instruction count = %d, want 4", n)
	}
}

func TestTLSGlobals(t *testing.T) {
	b := New()
	off1 := b.TLSGlobal("a", 8)
	off2 := b.TLSGlobal("b", 4)
	off3 := b.TLSGlobal("c", 8)
	if off1 != TCBSize {
		t.Errorf("first TLS offset = %d", off1)
	}
	if off2 != off1+8 {
		t.Errorf("second TLS offset = %d", off2)
	}
	if off3%8 != 0 || off3 <= off2 {
		t.Errorf("third TLS offset = %d (alignment)", off3)
	}
	if b.TLSOffset("b") != off2 {
		t.Error("TLSOffset lookup")
	}
	f := b.Func("main", "t.c")
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if im.TLSSize < off3+8 {
		t.Errorf("TLSSize = %d", im.TLSSize)
	}
}

func TestHostImportInterning(t *testing.T) {
	b := New()
	f := b.Func("main", "t.c")
	f.Hcall("malloc")
	f.Hcall("free")
	f.Hcall("malloc")
	f.Hlt(guest.R0)
	im, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if len(im.HostImports) != 2 {
		t.Errorf("imports = %v", im.HostImports)
	}
}

// TestPrelude: a builder started on a Prelude links to the image the same
// code gives with the prelude's functions emitted into it first, and the
// prelude's function names are taken.
func TestPrelude(t *testing.T) {
	emit := func(b *Builder) {
		f := b.Func("helper", "p.c")
		f.Line(1)
		f.Call("leaf")
		f.Hcall("h1")
		f.Ret()
		g := b.Func("leaf", "p.c")
		g.Line(5)
		g.Hcall("h2")
		g.Ret()
	}
	user := func(b *Builder) {
		b.Global("g", 8)
		f := b.Func("main", "u.c")
		f.Line(7)
		f.Call("helper")
		f.LoadSym(guest.R1, "leaf")
		f.LoadSym(guest.R2, "g")
		f.Hcall("h2")
		f.Hcall("h3")
		f.Hlt(guest.R0)
	}
	p, err := NewPrelude(emit)
	if err != nil {
		t.Fatal(err)
	}
	inline := New()
	emit(inline)
	user(inline)
	shared := NewFrom(p)
	user(shared)
	want, err := inline.Link()
	if err != nil {
		t.Fatal(err)
	}
	got, err := shared.Link()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("image on the prelude:\n%+v\nwith the prelude emitted inline:\n%+v", got, want)
	}

	dup := NewFrom(p)
	dup.Func("leaf", "u.c").Ret()
	dup.Func("main", "u.c").Hlt(guest.R0)
	if _, err := dup.Link(); err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Errorf("redefining a prelude function: %v", err)
	}
	if _, err := NewPrelude(func(b *Builder) { b.Global("x", 8) }); err == nil {
		t.Error("a prelude with a global was accepted")
	}
}
