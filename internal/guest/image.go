package guest

import (
	"fmt"
	"sort"
)

// Canonical address-space layout. Addresses are 32-bit values carried in
// 64-bit registers.
const (
	// TextBase is where program text is loaded.
	TextBase uint64 = 0x0000_1000
	// DataBase is where initialized globals are loaded.
	DataBase uint64 = 0x0100_0000
	// HeapBase is the bottom of the guest heap.
	HeapBase uint64 = 0x0800_0000
	// HeapLimit is the top of the guest heap.
	HeapLimit uint64 = 0x5000_0000
	// FastPoolBase is the bottom of the runtime's internal allocation pool
	// (the __kmp_fast_allocate arena: task and region descriptors).
	FastPoolBase uint64 = 0x5000_0000
	// FastPoolLimit is the top of the runtime pool.
	FastPoolLimit uint64 = 0x5800_0000
	// TLSBase is the region where per-thread TLS blocks are carved.
	TLSBase uint64 = 0x6000_0000
	// TLSLimit bounds the TLS region.
	TLSLimit uint64 = 0x6800_0000
	// StackRegionTop is the top of the stack region; thread stacks are
	// carved downward from here.
	StackRegionTop uint64 = 0x7fff_f000
	// StackSize is the default per-thread stack size.
	StackSize uint64 = 1 << 20
)

// SymKind classifies symbols.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota
	SymObject
)

// Symbol is one entry of the image symbol table.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
	Kind SymKind
}

// LineEntry maps a guest text address to a source location, standing in for
// DWARF line info. Entries cover [Addr, Addr+Len).
type LineEntry struct {
	Addr uint64
	Len  uint64
	File string
	Line int
}

// Image is a loaded guest program: the binary artifact the DBI framework
// instruments.
type Image struct {
	// Text is the encoded instruction stream, loaded at TextBase.
	Text []uint64
	// Data is the initialized data segment, loaded at DataBase.
	Data []byte
	// Entry is the address of the first instruction of main.
	Entry uint64
	// HostImports maps host-call numbers (the imm of OpHcall) to imported
	// function names, resolved against the machine's host library at load
	// time.
	HostImports []string
	// Symbols is sorted by address at Freeze time.
	Symbols []Symbol
	// Lines is sorted by address at Freeze time.
	Lines []LineEntry
	// TLSSize is the per-thread TLS template size (bytes past the TCB
	// header) required by _Thread_local objects in the program.
	TLSSize uint64

	frozen bool
	// decoded is Text decoded, kept by Freeze.
	decoded []Instr
}

// TextEnd returns the first address past the text segment.
func (im *Image) TextEnd() uint64 {
	return TextBase + uint64(len(im.Text))*InstrBytes
}

// Freeze sorts lookup tables, validates the image and keeps its decoded
// text. It must be called before the image is executed.
func (im *Image) Freeze() error {
	// A table already in strictly increasing order is its only sorted
	// order, so it is left as it is.
	if !increasing(len(im.Symbols), func(i int) uint64 { return im.Symbols[i].Addr }) {
		sort.Slice(im.Symbols, func(i, j int) bool { return im.Symbols[i].Addr < im.Symbols[j].Addr })
	}
	if !increasing(len(im.Lines), func(i int) uint64 { return im.Lines[i].Addr }) {
		sort.Slice(im.Lines, func(i, j int) bool { return im.Lines[i].Addr < im.Lines[j].Addr })
	}
	if im.Entry < TextBase || im.Entry >= im.TextEnd() {
		return fmt.Errorf("guest: entry 0x%x outside text [0x%x,0x%x)", im.Entry, TextBase, im.TextEnd())
	}
	decoded := make([]Instr, len(im.Text))
	for i, w := range im.Text {
		decoded[i] = Decode(w)
		if !decoded[i].Valid() {
			return fmt.Errorf("guest: invalid instruction at 0x%x: %#x", TextBase+uint64(i)*InstrBytes, w)
		}
	}
	im.decoded = decoded
	im.frozen = true
	return nil
}

// increasing reports whether key(0), ..., key(n-1) strictly increase.
func increasing(n int, key func(int) uint64) bool {
	for i := 1; i < n; i++ {
		if key(i-1) >= key(i) {
			return false
		}
	}
	return true
}

// Frozen reports whether Freeze has been called successfully.
func (im *Image) Frozen() bool { return im.frozen }

// Decoded returns the decoded text of a frozen image: instruction i sits at
// TextBase + i*InstrBytes. It is shared by every user of the image, so
// callers must not modify it.
func (im *Image) Decoded() []Instr { return im.decoded }

// FetchInstr decodes the instruction at the given text address.
func (im *Image) FetchInstr(addr uint64) (Instr, error) {
	if addr < TextBase || addr >= im.TextEnd() || (addr-TextBase)%InstrBytes != 0 {
		return Instr{}, fmt.Errorf("guest: bad fetch address 0x%x", addr)
	}
	return Decode(im.Text[(addr-TextBase)/InstrBytes]), nil
}

// SymbolFor returns the symbol containing addr, or nil.
func (im *Image) SymbolFor(addr uint64) *Symbol {
	i := sort.Search(len(im.Symbols), func(i int) bool { return im.Symbols[i].Addr > addr })
	for j := i - 1; j >= 0; j-- {
		s := &im.Symbols[j]
		if addr >= s.Addr && addr < s.Addr+s.Size {
			return s
		}
		// Symbols are sorted by Addr; once we are below a symbol whose
		// span cannot reach addr we can stop only if sizes were nested,
		// so just check a few and bail.
		if s.Addr+s.Size <= addr && j < i-4 {
			break
		}
	}
	return nil
}

// SymbolByName returns the symbol with the given name, or nil.
func (im *Image) SymbolByName(name string) *Symbol {
	for i := range im.Symbols {
		if im.Symbols[i].Name == name {
			return &im.Symbols[i]
		}
	}
	return nil
}

// LineFor returns the source location covering addr, or ("", 0).
func (im *Image) LineFor(addr uint64) (string, int) {
	i := sort.Search(len(im.Lines), func(i int) bool { return im.Lines[i].Addr > addr })
	if i == 0 {
		return "", 0
	}
	e := im.Lines[i-1]
	if addr >= e.Addr && addr < e.Addr+e.Len {
		return e.File, e.Line
	}
	return "", 0
}

// Locate renders "symbol (file:line)" for an address, used by error reports.
func (im *Image) Locate(addr uint64) string {
	sym := im.SymbolFor(addr)
	file, line := im.LineFor(addr)
	switch {
	case sym != nil && file != "":
		return fmt.Sprintf("%s (%s:%d)", sym.Name, file, line)
	case sym != nil:
		return fmt.Sprintf("%s (+0x%x)", sym.Name, addr-sym.Addr)
	case file != "":
		return fmt.Sprintf("%s:%d", file, line)
	default:
		return fmt.Sprintf("0x%x", addr)
	}
}

// Disassemble renders the text segment (or a range of it) for debugging.
func (im *Image) Disassemble(from, to uint64) string {
	if from == 0 {
		from = TextBase
	}
	if to == 0 || to > im.TextEnd() {
		to = im.TextEnd()
	}
	out := ""
	for a := from; a < to; a += InstrBytes {
		if sym := im.SymbolFor(a); sym != nil && sym.Addr == a {
			out += fmt.Sprintf("\n<%s>:\n", sym.Name)
		}
		in, _ := im.FetchInstr(a)
		out += fmt.Sprintf("  0x%06x: %s\n", a, in)
	}
	return out
}
