package vex

// Scratch is reusable working memory for Optimize and Compile: the per-temp
// tables and output buffers one call needs, kept between calls so a
// translation pipeline that runs both once per block allocates only what it
// keeps. A Scratch serves one caller at a time; its zero value is ready to
// use.
type Scratch struct {
	// Optimize: substitution state and readers of each temp, the output
	// statements the passes drop, substituted dirty-call arguments, the
	// register table with the registers the current block touched, and
	// the common-subexpression table with its stamp.
	ts      []tstate
	used    []bool
	kill    []bool
	args    []Expr
	regs    []regState
	touched []uint8
	cseTab  []cseSlot
	cseGen  uint32
	// Compile: readers of each temp, and the op, PC, IC, call and call
	// argument buffers the lowering appends into before it copies the
	// result out.
	uses  []uint32
	ops   []UOp
	pcs   []uint64
	ics   []uint32
	calls []DirtyOp
	cargs []CArg
}

// tstate is Optimize's substitution state for one temp: a known constant
// value, or an aliased expression (another temp or a register read) that may
// replace reads of the temp. A register alias holds from output position at
// until the register is next written or a dirty call runs.
type tstate struct {
	hasKnown bool
	hasAlias bool
	at       int32
	known    uint64
	alias    Expr
}

// regState is Optimize's view of one guest register in the current block.
// Positions are output statement indices plus one, so zero means none.
type regState struct {
	// put is the position of the block's latest PUT to the register, and
	// val the value it wrote.
	put int32
	// read is the position of the latest statement that reads the
	// register itself: a GET no PUT could be forwarded to.
	read int32
	val  Expr
}

// cseSize is the size of the common-subexpression table: a power of two,
// twice the binops a translated block of 64 guest instructions can hold.
const cseSize = 256

// cseSlot is one entry of the common-subexpression table: the position of
// an output binop, valid while gen equals the Scratch's cseGen.
type cseSlot struct {
	at  int32
	gen uint32
}

// zeroed returns s resized to n zero elements, reusing its array when it is
// large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Optimize performs the IR cleanups Valgrind's VEX applies to translated
// superblocks before handing them to tools: constant folding, copy
// propagation through temporaries, register forwarding, redundant-PUT
// removal, common-subexpression elimination of binops and dead-temporary
// elimination. The result computes the same machine state wherever it can
// be observed (property-tested against the direct interpreter in the dbi
// package).
//
// Guest registers are exact at every load, store, exit and dirty call, and
// at the block end, not at every instruction: a PUT is dropped only when a
// later PUT to the same register overwrites it with none of those, and no
// read of the register, between the two. A fault, a taken exit, a helper
// call and everything after the block therefore read the registers
// unoptimized code would show them. Loads, stores, exits and dirty calls
// keep their order and side effects. A dirty call may read and write any
// register, so forwarding, register aliases and common subexpressions do
// not cross one.
//
// Optimize runs once per translation, on the hot path of every cold block
// dispatch, so its working state is flat slices indexed by temp and
// register number rather than maps, kept in a Scratch. This form returns a
// new block, leaves sb unchanged and runs on a fresh Scratch; a caller that
// optimizes block after block keeps one Scratch and calls its Optimize
// method instead.
func Optimize(sb *SuperBlock) *SuperBlock {
	out := &SuperBlock{Stmts: make([]Stmt, 0, len(sb.Stmts))}
	new(Scratch).Optimize(out, sb)
	return out
}

// Optimize writes the optimized form of sb into out, reusing out's statement
// and call arrays; out and sb must be distinct blocks. Its working state
// lives in x, and so do the substituted arguments of sb's dirty calls: out is
// valid until the next call on x.
func (x *Scratch) Optimize(out, sb *SuperBlock) {
	*out = SuperBlock{
		GuestAddr: sb.GuestAddr,
		NTemps:    sb.NTemps,
		NextJK:    sb.NextJK,
		Aux:       sb.Aux,
		Stmts:     out.Stmts[:0],
		Calls:     out.Calls[:0],
	}
	x.ts = zeroed(x.ts, int(sb.NTemps))
	x.kill = zeroed(x.kill, len(sb.Stmts))
	x.args = x.args[:0]
	x.startBlock()

	// bar is the position of the latest load, store, exit or dirty call,
	// and dirty that of the latest dirty call.
	var bar, dirty int32
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		at := int32(len(out.Stmts)) + 1
		var ns Stmt
		switch s.Kind {
		case SWrTmpExpr:
			e := x.subst(s.E1, at, dirty)
			switch e.Kind {
			case KindConst:
				// Every later read is substituted with the
				// value, so the dead-temp pass drops the statement.
				x.ts[s.Tmp] = tstate{hasKnown: true, known: e.Const}
			case KindRdTmp, KindGetReg:
				// Copy propagation. A register alias holds only
				// until the register is rewritten (see subst).
				x.ts[s.Tmp] = tstate{hasAlias: true, alias: e, at: at}
			}
			ns = Stmt{Kind: SWrTmpExpr, Tmp: s.Tmp, E1: e}
		case SWrTmpBinop:
			a, b := x.subst(s.E1, at, dirty), x.subst(s.E2, at, dirty)
			if a.Kind == KindConst && b.Kind == KindConst {
				v := EvalBinop(s.Op, a.Const, b.Const)
				x.ts[s.Tmp] = tstate{hasKnown: true, known: v}
				ns = Stmt{Kind: SWrTmpExpr, Tmp: s.Tmp, E1: ConstE(v)}
				break
			}
			ns = Stmt{Kind: SWrTmpBinop, Tmp: s.Tmp, Op: s.Op, E1: a, E2: b}
			if t, ok := x.cse(out.Stmts, &ns, at, dirty); ok {
				// The block computed this already: alias the
				// earlier temp, and the dead-temp pass drops the copy.
				x.ts[s.Tmp] = tstate{hasAlias: true, alias: TmpE(t)}
				ns = Stmt{Kind: SWrTmpExpr, Tmp: s.Tmp, E1: TmpE(t)}
			}
		case SWrTmpUnop:
			a := x.subst(s.E1, at, dirty)
			if a.Kind == KindConst {
				v := EvalUnop(s.Op, a.Const)
				x.ts[s.Tmp] = tstate{hasKnown: true, known: v}
				ns = Stmt{Kind: SWrTmpExpr, Tmp: s.Tmp, E1: ConstE(v)}
				break
			}
			ns = Stmt{Kind: SWrTmpUnop, Tmp: s.Tmp, Op: s.Op, E1: a}
		case SWrTmpLoad:
			ns = Stmt{Kind: SWrTmpLoad, Tmp: s.Tmp, Wd: s.Wd, E1: x.subst(s.E1, at, dirty)}
			bar = at
		case SStore:
			ns = Stmt{Kind: SStore, Wd: s.Wd, E1: x.subst(s.E1, at, dirty), E2: x.subst(s.E2, at, dirty)}
			bar = at
		case SPutReg:
			ns = Stmt{Kind: SPutReg, Reg: s.Reg, E1: x.subst(s.E1, at, dirty)}
			r := x.reg(s.Reg)
			// Redundant-PUT removal: the previous PUT is dead when
			// nothing since could have observed it.
			if r.put > bar && r.put > r.read {
				x.kill[r.put-1] = true
			}
			r.put, r.val = at, ns.E1
		case SExit:
			ns = Stmt{Kind: SExit, E1: x.subst(s.E1, at, dirty), Target: s.Target, JK: s.JK}
			bar = at
		case SDirty:
			c := sb.Calls[s.Call]
			if len(c.Args) > 0 {
				n := len(x.args)
				for _, a := range c.Args {
					x.args = append(x.args, x.subst(a, at, dirty))
				}
				c.Args = x.args[n:len(x.args):len(x.args)]
			}
			bar, dirty = at, at
			out.AppendCall(s.Tmp, c)
			continue
		default: // SIMark
			out.Append(*s)
			continue
		}
		out.Append(ns)
	}
	out.Next = x.subst(sb.Next, int32(len(out.Stmts))+1, dirty)
	x.sweep(out)
}

// startBlock resets the register and CSE state for a new block.
func (x *Scratch) startBlock() {
	if x.regs == nil {
		x.regs = make([]regState, 256)
		x.cseTab = make([]cseSlot, cseSize)
	}
	for _, r := range x.touched {
		x.regs[r] = regState{}
	}
	x.touched = x.touched[:0]
	if x.cseGen++; x.cseGen == 0 {
		// The stamp wrapped: clear the table so no slot written 2^32
		// blocks ago reads as current.
		clear(x.cseTab)
		x.cseGen = 1
	}
}

// reg returns the block state of register r, recording r as touched.
func (x *Scratch) reg(r uint8) *regState {
	st := &x.regs[r]
	if st.put == 0 && st.read == 0 {
		x.touched = append(x.touched, r)
	}
	return st
}

// subst rewrites an operand of the statement at output position at. A temp
// with a known value or a live alias reads that instead, and a register the
// block has PUT a constant or a temp to since the latest dirty call (whose
// position is dirty) reads the value put. A register operand left as a
// register read marks the register read at this position, so the PUT it
// observes stays.
func (x *Scratch) subst(e Expr, at, dirty int32) Expr {
	switch e.Kind {
	case KindRdTmp:
		if int(e.Tmp) >= len(x.ts) {
			return e
		}
		s := &x.ts[e.Tmp]
		if s.hasKnown {
			return ConstE(s.known)
		}
		if !s.hasAlias {
			return e
		}
		if s.alias.Kind != KindGetReg {
			return s.alias
		}
		// A register alias is stale once the register is rewritten or
		// a dirty call may have changed it; the temp then reads the
		// value it snapshotted.
		if x.regs[s.alias.Reg].put >= s.at || dirty >= s.at {
			return e
		}
		x.reg(s.alias.Reg).read = at
		return s.alias
	case KindGetReg:
		r := x.reg(e.Reg)
		if r.put > dirty && r.val.Kind != KindGetReg {
			return r.val
		}
		r.read = at
	}
	return e
}

// cse looks the binop ns, about to be emitted at position at, up among the
// block's earlier binops, returning the temp of an equal one. A binop that
// reads a register matches only while that register has not been written
// since; none matches across a dirty call. A miss enters ns in the table.
func (x *Scratch) cse(stmts []Stmt, ns *Stmt, at, dirty int32) (Temp, bool) {
	h := uint32(ns.Op)*0x9e3779b1 ^ exprHash(ns.E1)*0x85ebca6b ^ exprHash(ns.E2)*0xc2b2ae35
	for n := uint32(0); n < cseSize; n++ {
		slot := &x.cseTab[(h+n)&(cseSize-1)]
		if slot.gen != x.cseGen {
			slot.at, slot.gen = at, x.cseGen
			return 0, false
		}
		p := &stmts[slot.at-1]
		if p.Op != ns.Op || p.E1 != ns.E1 || p.E2 != ns.E2 || slot.at <= dirty {
			continue
		}
		if x.regWrittenSince(p.E1, slot.at) || x.regWrittenSince(p.E2, slot.at) {
			continue
		}
		return p.Tmp, true
	}
	return 0, false // table full: no elimination
}

// regWrittenSince reports whether e reads a register the block has PUT to
// at or after position at.
func (x *Scratch) regWrittenSince(e Expr, at int32) bool {
	return e.Kind == KindGetReg && x.regs[e.Reg].put >= at
}

// exprHash mixes an operand for the CSE table.
func exprHash(e Expr) uint32 {
	return uint32(e.Kind)<<24 ^ uint32(e.Const) ^ uint32(e.Const>>32) ^ uint32(e.Tmp) ^ uint32(e.Reg)<<16
}

// sweep drops the killed PUTs and then, walking backwards, every pure
// statement whose temp no kept statement reads: removing a dead statement
// can leave its operands dead in turn. Loads stay even when unread: a tool
// may instrument them, and a dead load is still an access the guest
// performed.
func (x *Scratch) sweep(out *SuperBlock) {
	x.used = zeroed(x.used, int(out.NTemps))
	x.mark(out.Next)
	for i := len(out.Stmts) - 1; i >= 0; i-- {
		s := &out.Stmts[i]
		switch s.Kind {
		case SWrTmpExpr, SWrTmpBinop, SWrTmpUnop:
			if !x.used[s.Tmp] {
				x.kill[i] = true
			}
		}
		if !x.kill[i] {
			x.markReads(out, s)
		}
	}
	n := 0
	for i := range out.Stmts {
		if x.kill[i] {
			continue
		}
		if n != i {
			out.Stmts[n] = out.Stmts[i]
		}
		n++
	}
	out.Stmts = out.Stmts[:n]
}

// mark records a read of a temp.
func (x *Scratch) mark(e Expr) {
	if e.Kind == KindRdTmp && int(e.Tmp) < len(x.used) {
		x.used[e.Tmp] = true
	}
}

// markReads records every temp statement s of block out reads.
func (x *Scratch) markReads(out *SuperBlock, s *Stmt) {
	switch s.Kind {
	case SWrTmpExpr, SWrTmpUnop, SWrTmpLoad, SPutReg, SExit:
		x.mark(s.E1)
	case SWrTmpBinop, SStore:
		x.mark(s.E1)
		x.mark(s.E2)
	case SDirty:
		for _, a := range out.Calls[s.Call].Args {
			x.mark(a)
		}
	}
}
