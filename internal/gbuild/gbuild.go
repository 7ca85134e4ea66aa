// Package gbuild is the tool-chain back end for the guest ISA: a structured
// assembler that builds binary program images (internal/guest.Image) with
// symbol tables and line debug info.
//
// It plays the role of the compiler in the paper's setup: benchmark sources
// are expressed through this builder, the result is a genuine guest binary,
// and from that point on the DBI framework only ever sees instruction words.
package gbuild

import (
	"encoding/binary"
	"fmt"

	"repro/internal/guest"
)

// Label is a forward-referenceable code location inside a function.
type Label int

// fixupKind says how a pending reference patches its instruction.
type fixupKind uint8

const (
	fixImmSym   fixupKind = iota // imm <- absolute address of symbol
	fixLdi64Sym                  // ldi/ldih pair <- address of symbol
)

type fixup struct {
	instr int // index into Builder.text
	kind  fixupKind
	sym   string
}

// Builder accumulates functions and globals and links them into an Image.
// Its text begins with a Prelude's (empty for New), which it shares
// read-only: the builder emits, resolves and encodes only its own code.
type Builder struct {
	prelude *Prelude
	text    []guest.Instr // own instructions, placed after the prelude's
	lines   []lineRec
	symbols []guest.Symbol // data symbols, in placement order
	fixups  []fixup

	data      []byte
	dataSyms  map[string]uint64 // name -> address
	funcs     []*Func           // own functions, in definition order
	funcsByNm map[string]*Func
	hostIDs   map[string]int // own imports, numbered after the prelude's
	hostNames []string
	entry     string
	linkErr   error

	tlsOff  uint64
	tlsSyms map[string]uint64
}

// Prelude is code that many images begin with, linked once: its
// instructions encoded with every reference resolved, its function symbols
// and the host imports it makes. Builders started from it with NewFrom
// share it read-only, so any number of them may use it at once.
type Prelude struct {
	words     []uint64
	funcs     []guest.Symbol    // in definition order
	funcAddr  map[string]uint64 // name -> address
	lines     []lineRec
	hostNames []string
	hostIDs   map[string]int
}

var emptyPrelude = &Prelude{}

// TCBSize is the reserved thread-control-block header at the start of each
// thread's TLS block; _Thread_local offsets start past it.
const TCBSize = 64

// TLSGlobal reserves a per-thread (_Thread_local) object and returns its
// offset from the thread pointer (guest.TP).
func (b *Builder) TLSGlobal(name string, size uint64) uint64 {
	if b.tlsSyms == nil {
		b.tlsSyms = make(map[string]uint64)
		b.tlsOff = TCBSize
	}
	if _, dup := b.tlsSyms[name]; dup {
		b.fail(fmt.Errorf("gbuild: duplicate TLS global %q", name))
	}
	off := (b.tlsOff + 7) &^ 7
	b.tlsOff = off + size
	b.tlsSyms[name] = off
	return off
}

// TLSOffset returns the offset of a previously reserved TLS global.
func (b *Builder) TLSOffset(name string) uint64 {
	off, ok := b.tlsSyms[name]
	if !ok {
		b.fail(fmt.Errorf("gbuild: unknown TLS global %q", name))
	}
	return off
}

// lineRec attributes the instructions from text position instr (counted
// from the start of the image's text) to a source line.
type lineRec struct {
	instr int
	file  string
	line  int
}

// New creates an empty builder.
func New() *Builder { return NewFrom(emptyPrelude) }

// NewFrom creates a builder whose image begins with p's code. Its own code
// may call p's functions and load their addresses.
func NewFrom(p *Prelude) *Builder {
	return &Builder{
		prelude:   p,
		dataSyms:  make(map[string]uint64),
		funcsByNm: make(map[string]*Func),
		hostIDs:   make(map[string]int),
	}
}

// NewPrelude links the functions emit adds to an empty builder into a
// Prelude. Every reference in them must resolve among them, and emit may
// place no global, TLS object or entry.
func NewPrelude(emit func(b *Builder)) (*Prelude, error) {
	b := New()
	emit(b)
	if b.linkErr != nil {
		return nil, b.linkErr
	}
	if len(b.data) > 0 || len(b.symbols) > 0 || b.tlsSyms != nil || b.entry != "" {
		return nil, fmt.Errorf("gbuild: a prelude holds functions only")
	}
	if err := b.checkLabels(); err != nil {
		return nil, err
	}
	p := &Prelude{
		funcs:     b.appendFuncSymbols(nil),
		funcAddr:  make(map[string]uint64, len(b.funcs)),
		lines:     b.lines,
		hostNames: b.hostNames,
		hostIDs:   b.hostIDs,
	}
	for _, s := range p.funcs {
		p.funcAddr[s.Name] = s.Addr
	}
	var err error
	if p.words, err = b.encode(); err != nil {
		return nil, err
	}
	return p, nil
}

// HostID interns a host-import name and returns its host-call number.
func (b *Builder) HostID(name string) int {
	if id, ok := b.prelude.hostIDs[name]; ok {
		return id
	}
	if id, ok := b.hostIDs[name]; ok {
		return id
	}
	id := len(b.prelude.hostNames) + len(b.hostNames)
	b.hostIDs[name] = id
	b.hostNames = append(b.hostNames, name)
	return id
}

// Global reserves a zero-initialized data object of the given size, 8-byte
// aligned, and returns its address.
func (b *Builder) Global(name string, size uint64) uint64 {
	return b.GlobalInit(name, make([]byte, size))
}

// GlobalInit places an initialized data object and returns its address.
func (b *Builder) GlobalInit(name string, init []byte) uint64 {
	for len(b.data)%8 != 0 {
		b.data = append(b.data, 0)
	}
	addr := guest.DataBase + uint64(len(b.data))
	b.data = append(b.data, init...)
	if name != "" {
		if _, dup := b.dataSyms[name]; dup {
			b.fail(fmt.Errorf("gbuild: duplicate global %q", name))
		}
		b.dataSyms[name] = addr
		b.symbols = append(b.symbols, guest.Symbol{
			Name: name, Addr: addr, Size: uint64(len(init)), Kind: guest.SymObject,
		})
	}
	return addr
}

// GlobalU64 places a little-endian uint64 global.
func (b *Builder) GlobalU64(name string, v uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return b.GlobalInit(name, buf[:])
}

// GlobalString places a NUL-terminated string and returns its address.
func (b *Builder) GlobalString(name, s string) uint64 {
	return b.GlobalInit(name, append([]byte(s), 0))
}

// DataAddr returns the address of a previously placed global.
func (b *Builder) DataAddr(name string) uint64 {
	a, ok := b.dataSyms[name]
	if !ok {
		b.fail(fmt.Errorf("gbuild: unknown global %q", name))
	}
	return a
}

// SetEntry names the entry function (default "main").
func (b *Builder) SetEntry(name string) { b.entry = name }

func (b *Builder) fail(err error) {
	if b.linkErr == nil {
		b.linkErr = err
	}
}

// pos returns the text position of the next instruction, counted from the
// start of the image's text.
func (b *Builder) pos() int { return len(b.prelude.words) + len(b.text) }

// textAddr returns the address of text position i.
func textAddr(i int) uint64 { return guest.TextBase + uint64(i)*guest.InstrBytes }

// Func opens a new function with the given symbol name and source file for
// debug info. Instructions are appended through the returned Func until the
// next call to Func or Link.
func (b *Builder) Func(name, file string) *Func {
	_, inPrelude := b.prelude.funcAddr[name]
	if _, dup := b.funcsByNm[name]; dup || inPrelude {
		b.fail(fmt.Errorf("gbuild: duplicate function %q", name))
	}
	f := &Func{
		b:     b,
		name:  name,
		file:  file,
		start: b.pos(),
		end:   b.pos(),
	}
	b.funcsByNm[name] = f
	b.funcs = append(b.funcs, f)
	return f
}

// funcAddr resolves a function name among the builder's own functions and
// its prelude's.
func (b *Builder) funcAddr(name string) (uint64, bool) {
	if f, ok := b.funcsByNm[name]; ok {
		return textAddr(f.start), true
	}
	a, ok := b.prelude.funcAddr[name]
	return a, ok
}

// checkLabels fails on the first label bound nowhere.
func (b *Builder) checkLabels() error {
	for _, f := range b.funcs {
		for lbl, idx := range f.labels {
			if idx < 0 {
				return fmt.Errorf("gbuild: %s: label %d bound nowhere", f.name, lbl)
			}
		}
	}
	return nil
}

// appendFuncSymbols appends the symbols of the builder's own functions, in
// definition order.
func (b *Builder) appendFuncSymbols(syms []guest.Symbol) []guest.Symbol {
	for _, f := range b.funcs {
		syms = append(syms, guest.Symbol{
			Name: f.name, Addr: textAddr(f.start),
			Size: uint64(f.end-f.start) * guest.InstrBytes,
			Kind: guest.SymFunc,
		})
	}
	return syms
}

// encode returns the image's text: the prelude's words followed by the
// builder's own instructions, encoded with every symbol reference resolved.
// It leaves the builder unchanged.
func (b *Builder) encode() ([]uint64, error) {
	off := len(b.prelude.words)
	words := make([]uint64, off+len(b.text))
	copy(words, b.prelude.words)
	for i, in := range b.text {
		if !in.Valid() {
			return nil, fmt.Errorf("gbuild: invalid instruction %d: %+v", off+i, in)
		}
		words[off+i] = in.Encode()
	}
	// An instruction's immediate is the top half of its word.
	setImm := func(i int, v uint64) { words[off+i] = words[off+i]&0xffffffff | v<<32 }
	for _, fx := range b.fixups {
		target, ok := b.funcAddr(fx.sym)
		if !ok {
			target, ok = b.dataSyms[fx.sym]
		}
		if !ok {
			return nil, fmt.Errorf("gbuild: undefined symbol %q", fx.sym)
		}
		setImm(fx.instr, uint64(uint32(target)))
		if fx.kind == fixLdi64Sym { // ldi rd, lo32 ; ldih rd, hi32
			setImm(fx.instr+1, uint64(uint32(target>>32)))
		}
	}
	return words, nil
}

// symbolTable returns the image's symbols. Freeze sorts them by address;
// when no two share an address they are listed in that order already, and
// otherwise data comes before functions, the order Freeze has always been
// given, so that it breaks the ties the same way.
func (b *Builder) symbolTable() []guest.Symbol {
	p := b.prelude
	syms := make([]guest.Symbol, 0, len(p.funcs)+len(b.funcs)+len(b.symbols))
	syms = append(syms, p.funcs...)
	syms = b.appendFuncSymbols(syms)
	syms = append(syms, b.symbols...)
	for i := 1; i < len(syms); i++ {
		if syms[i-1].Addr >= syms[i].Addr {
			syms = append(syms[:0], b.symbols...)
			syms = append(syms, p.funcs...)
			return b.appendFuncSymbols(syms)
		}
	}
	return syms
}

// Link resolves all references and produces a frozen image. It leaves the
// builder unchanged, so linking again gives an equal image.
func (b *Builder) Link() (*guest.Image, error) {
	if b.linkErr != nil {
		return nil, b.linkErr
	}
	if err := b.checkLabels(); err != nil {
		return nil, err
	}
	text, err := b.encode()
	if err != nil {
		return nil, err
	}
	p := b.prelude
	im := &guest.Image{
		Text:    text,
		Data:    append([]byte(nil), b.data...),
		Symbols: b.symbolTable(),
		TLSSize: b.tlsOff,
	}
	if n := len(p.hostNames) + len(b.hostNames); n > 0 {
		im.HostImports = append(append(make([]string, 0, n), p.hostNames...), b.hostNames...)
	}
	// Line table: coalesce per-instruction records into ranges.
	recs := b.lines
	if len(p.lines) > 0 {
		recs = append(append([]lineRec(nil), p.lines...), b.lines...)
	}
	for i, lr := range recs {
		addr := textAddr(lr.instr)
		end := im.TextEnd()
		if i+1 < len(recs) {
			end = textAddr(recs[i+1].instr)
		}
		if end > addr {
			im.Lines = append(im.Lines, guest.LineEntry{
				Addr: addr, Len: end - addr, File: lr.file, Line: lr.line,
			})
		}
	}
	entry := b.entry
	if entry == "" {
		entry = "main"
	}
	ea, ok := b.funcAddr(entry)
	if !ok {
		return nil, fmt.Errorf("gbuild: entry function %q not defined", entry)
	}
	im.Entry = ea
	if err := im.Freeze(); err != nil {
		return nil, err
	}
	return im, nil
}

// Func emits instructions for one function. Its start, end and labels are
// text positions counted from the start of the image's text; end is start
// until the function's first instruction.
type Func struct {
	b      *Builder
	name   string
	file   string
	start  int
	end    int
	labels []int // label -> text position (-1 = unbound)
	// pending label fixups local to this function (indexes into Builder.text)
	pend []struct {
		instr int
		label Label
	}
}

// Name returns the function's symbol name.
func (f *Func) Name() string { return f.name }

// Line sets the source line attributed to subsequently emitted instructions.
func (f *Func) Line(n int) {
	f.b.lines = append(f.b.lines, lineRec{instr: f.b.pos(), file: f.file, line: n})
}

// emit appends one instruction and returns its index in Builder.text.
func (f *Func) emit(in guest.Instr) int {
	idx := len(f.b.text)
	f.b.text = append(f.b.text, in)
	f.end = f.b.pos()
	return idx
}

// NewLabel creates an unbound label.
func (f *Func) NewLabel() Label {
	f.labels = append(f.labels, -1)
	return Label(len(f.labels) - 1)
}

// Bind attaches a label to the next emitted instruction and patches the
// references already emitted to it.
func (f *Func) Bind(l Label) {
	if f.labels[l] != -1 {
		f.b.fail(fmt.Errorf("gbuild: %s: label %d bound twice", f.name, l))
	}
	f.labels[l] = f.b.pos()
	for i := 0; i < len(f.pend); i++ {
		p := f.pend[i]
		if p.label == l {
			f.b.text[p.instr].Imm = int32(uint32(textAddr(f.labels[l])))
			f.pend = append(f.pend[:i], f.pend[i+1:]...)
			i--
		}
	}
}

// refLabel sets the immediate of the instruction at Builder.text index idx
// to the label's address if it is bound, otherwise records a pending patch.
func (f *Func) refLabel(idx int, l Label) {
	if f.labels[l] >= 0 {
		f.b.text[idx].Imm = int32(uint32(textAddr(f.labels[l])))
		return
	}
	f.pend = append(f.pend, struct {
		instr int
		label Label
	}{idx, l})
}

// --- plain instructions ---

// Nop emits a no-op.
func (f *Func) Nop() { f.emit(guest.Instr{Op: guest.OpNop}) }

// Ldi loads a sign-extended 32-bit immediate.
func (f *Func) Ldi(rd uint8, imm int32) {
	f.emit(guest.Instr{Op: guest.OpLdi, Rd: rd, Imm: imm})
}

// LdConst64 materializes an arbitrary 64-bit constant (1 or 2 instructions).
func (f *Func) LdConst64(rd uint8, v uint64) {
	if int64(int32(uint32(v))) == int64(v) {
		f.Ldi(rd, int32(uint32(v)))
		return
	}
	f.emit(guest.Instr{Op: guest.OpLdi, Rd: rd, Imm: int32(uint32(v))})
	f.emit(guest.Instr{Op: guest.OpLdih, Rd: rd, Imm: int32(uint32(v >> 32))})
}

// LdFloat materializes a float64 constant's bit pattern.
func (f *Func) LdFloat(rd uint8, v float64) {
	f.LdConst64(rd, f64bits(v))
}

// LoadSym loads the absolute address of a symbol (function or global).
func (f *Func) LoadSym(rd uint8, sym string) {
	idx := f.emit(guest.Instr{Op: guest.OpLdi, Rd: rd})
	f.emit(guest.Instr{Op: guest.OpLdih, Rd: rd})
	f.b.fixups = append(f.b.fixups, fixup{instr: idx, kind: fixLdi64Sym, sym: sym})
}

// Mov copies a register.
func (f *Func) Mov(rd, rs uint8) { f.emit(guest.Instr{Op: guest.OpMov, Rd: rd, Rs1: rs}) }

// ALU emits a three-register ALU operation.
func (f *Func) ALU(op guest.Opcode, rd, rs1, rs2 uint8) {
	f.emit(guest.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Add emits rd = rs1 + rs2.
func (f *Func) Add(rd, rs1, rs2 uint8) { f.ALU(guest.OpAdd, rd, rs1, rs2) }

// Sub emits rd = rs1 - rs2.
func (f *Func) Sub(rd, rs1, rs2 uint8) { f.ALU(guest.OpSub, rd, rs1, rs2) }

// Mul emits rd = rs1 * rs2.
func (f *Func) Mul(rd, rs1, rs2 uint8) { f.ALU(guest.OpMul, rd, rs1, rs2) }

// Div emits rd = rs1 / rs2 (signed).
func (f *Func) Div(rd, rs1, rs2 uint8) { f.ALU(guest.OpDiv, rd, rs1, rs2) }

// Addi emits rd = rs1 + imm.
func (f *Func) Addi(rd, rs1 uint8, imm int32) {
	f.emit(guest.Instr{Op: guest.OpAddi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Muli emits rd = rs1 * imm.
func (f *Func) Muli(rd, rs1 uint8, imm int32) {
	f.emit(guest.Instr{Op: guest.OpMuli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (f *Func) Andi(rd, rs1 uint8, imm int32) {
	f.emit(guest.Instr{Op: guest.OpAndi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ori emits rd = rs1 | imm.
func (f *Func) Ori(rd, rs1 uint8, imm int32) {
	f.emit(guest.Instr{Op: guest.OpOri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slt emits rd = (rs1 < rs2) signed.
func (f *Func) Slt(rd, rs1, rs2 uint8) { f.ALU(guest.OpSlt, rd, rs1, rs2) }

// Seq emits rd = (rs1 == rs2).
func (f *Func) Seq(rd, rs1, rs2 uint8) { f.ALU(guest.OpSeq, rd, rs1, rs2) }

// Fadd emits float64 rd = rs1 + rs2.
func (f *Func) Fadd(rd, rs1, rs2 uint8) { f.ALU(guest.OpFadd, rd, rs1, rs2) }

// Fsub emits float64 rd = rs1 - rs2.
func (f *Func) Fsub(rd, rs1, rs2 uint8) { f.ALU(guest.OpFsub, rd, rs1, rs2) }

// Fmul emits float64 rd = rs1 * rs2.
func (f *Func) Fmul(rd, rs1, rs2 uint8) { f.ALU(guest.OpFmul, rd, rs1, rs2) }

// Fdiv emits float64 rd = rs1 / rs2.
func (f *Func) Fdiv(rd, rs1, rs2 uint8) { f.ALU(guest.OpFdiv, rd, rs1, rs2) }

// Itof converts int64 rs1 to float64 rd.
func (f *Func) Itof(rd, rs1 uint8) { f.emit(guest.Instr{Op: guest.OpItof, Rd: rd, Rs1: rs1}) }

// Ftoi truncates float64 rs1 to int64 rd.
func (f *Func) Ftoi(rd, rs1 uint8) { f.emit(guest.Instr{Op: guest.OpFtoi, Rd: rd, Rs1: rs1}) }

// Ld emits rd = M[rs1+off] with the given width (1/2/4/8).
func (f *Func) Ld(width uint8, rd, rs1 uint8, off int32) {
	var op guest.Opcode
	switch width {
	case 1:
		op = guest.OpLd8
	case 2:
		op = guest.OpLd16
	case 4:
		op = guest.OpLd32
	case 8:
		op = guest.OpLd64
	default:
		f.b.fail(fmt.Errorf("gbuild: bad load width %d", width))
		return
	}
	f.emit(guest.Instr{Op: op, Rd: rd, Rs1: rs1, Imm: off})
}

// St emits M[rs1+off] = rs2 with the given width.
func (f *Func) St(width uint8, rs1 uint8, off int32, rs2 uint8) {
	var op guest.Opcode
	switch width {
	case 1:
		op = guest.OpSt8
	case 2:
		op = guest.OpSt16
	case 4:
		op = guest.OpSt32
	case 8:
		op = guest.OpSt64
	default:
		f.b.fail(fmt.Errorf("gbuild: bad store width %d", width))
		return
	}
	f.emit(guest.Instr{Op: op, Rs1: rs1, Rs2: rs2, Imm: off})
}

// Jmp branches unconditionally to a label.
func (f *Func) Jmp(l Label) {
	idx := f.emit(guest.Instr{Op: guest.OpJmp})
	f.refLabel(idx, l)
}

// Br emits a conditional branch (one of OpBeq..OpBgeu) to a label.
func (f *Func) Br(op guest.Opcode, rs1, rs2 uint8, l Label) {
	idx := f.emit(guest.Instr{Op: op, Rs1: rs1, Rs2: rs2})
	f.refLabel(idx, l)
}

// Beq branches if rs1 == rs2.
func (f *Func) Beq(rs1, rs2 uint8, l Label) { f.Br(guest.OpBeq, rs1, rs2, l) }

// Bne branches if rs1 != rs2.
func (f *Func) Bne(rs1, rs2 uint8, l Label) { f.Br(guest.OpBne, rs1, rs2, l) }

// Blt branches if rs1 < rs2 (signed).
func (f *Func) Blt(rs1, rs2 uint8, l Label) { f.Br(guest.OpBlt, rs1, rs2, l) }

// Bge branches if rs1 >= rs2 (signed).
func (f *Func) Bge(rs1, rs2 uint8, l Label) { f.Br(guest.OpBge, rs1, rs2, l) }

// Call emits jal to a named function.
func (f *Func) Call(fn string) {
	idx := f.emit(guest.Instr{Op: guest.OpJal})
	f.b.fixups = append(f.b.fixups, fixup{instr: idx, kind: fixImmSym, sym: fn})
}

// CallReg emits jalr through a register holding a function address.
func (f *Func) CallReg(rs1 uint8) { f.emit(guest.Instr{Op: guest.OpJalr, Rs1: rs1}) }

// Ret returns through lr.
func (f *Func) Ret() { f.emit(guest.Instr{Op: guest.OpRet}) }

// Hcall calls a host library function by name; arguments r0..r5, result r0.
func (f *Func) Hcall(name string) {
	id := f.b.HostID(name)
	f.emit(guest.Instr{Op: guest.OpHcall, Imm: int32(id)})
}

// Creq issues a client request with the given code; arguments r0..r5,
// result r0.
func (f *Func) Creq(code int32) { f.emit(guest.Instr{Op: guest.OpCreq, Imm: code}) }

// Hlt terminates the thread (program, on the main thread) with status rs1.
func (f *Func) Hlt(rs1 uint8) { f.emit(guest.Instr{Op: guest.OpHlt, Rs1: rs1}) }

// --- call-frame conveniences ---

// Enter sets up a stack frame: pushes lr and fp, sets fp = sp, reserves
// localBytes of locals (must be a multiple of 8).
func (f *Func) Enter(localBytes int32) {
	f.Addi(guest.SP, guest.SP, -16)
	f.St(8, guest.SP, 8, guest.LR)
	f.St(8, guest.SP, 0, guest.FP)
	f.Mov(guest.FP, guest.SP)
	if localBytes > 0 {
		f.Addi(guest.SP, guest.SP, -localBytes)
	}
}

// Leave tears down the frame created by Enter and returns.
func (f *Func) Leave() {
	f.Mov(guest.SP, guest.FP)
	f.Ld(8, guest.FP, guest.SP, 0)
	f.Ld(8, guest.LR, guest.SP, 8)
	f.Addi(guest.SP, guest.SP, 16)
	f.Ret()
}

// Push pushes a register.
func (f *Func) Push(r uint8) {
	f.Addi(guest.SP, guest.SP, -8)
	f.St(8, guest.SP, 0, r)
}

// Pop pops into a register.
func (f *Func) Pop(r uint8) {
	f.Ld(8, r, guest.SP, 0)
	f.Addi(guest.SP, guest.SP, 8)
}

// LocalAddr computes rd = fp - off for a local slot (off > 0, within the
// frame reserved by Enter).
func (f *Func) LocalAddr(rd uint8, off int32) {
	f.Addi(rd, guest.FP, -off)
}

// StLocal stores rs into the local slot at fp-off.
func (f *Func) StLocal(width uint8, off int32, rs uint8) {
	f.St(width, guest.FP, -off, rs)
}

// LdLocal loads the local slot at fp-off into rd.
func (f *Func) LdLocal(width uint8, rd uint8, off int32) {
	f.Ld(width, rd, guest.FP, -off)
}
