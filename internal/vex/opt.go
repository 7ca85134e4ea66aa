package vex

// Scratch is reusable working memory for Optimize and Compile: the per-temp
// tables and output buffers one call needs, kept between calls so a
// translation pipeline that runs both once per block allocates only what it
// keeps. A Scratch serves one caller at a time; its zero value is ready to
// use.
type Scratch struct {
	// Optimize: substitution state and readers of each temp, and
	// substituted dirty-call arguments.
	ts   []tstate
	used []bool
	args []Expr
	// Compile: readers of each temp, and the op, PC and IC buffers the
	// lowering appends into before it copies the result out.
	uses []uint32
	ops  []UOp
	pcs  []uint64
	ics  []uint32
}

// tstate is Optimize's substitution state for one temp: a known constant
// value, or an aliased expression (another temp or a register read) that may
// replace reads of the temp.
type tstate struct {
	hasKnown bool
	hasAlias bool
	known    uint64
	alias    Expr
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
// propagation through temporaries, and dead-temporary elimination. The
// result computes exactly the same machine state (Validate-able, and
// property-tested against the unoptimized block in the dbi package).
//
// Only pure statements are touched: loads, stores, register writes, exits
// and dirty calls keep their order and side effects.
//
// Optimize runs once per translation, on the hot path of every cold block
// dispatch, so its working state is flat slices indexed by temp number
// rather than maps, kept in a Scratch. This form returns a new block, leaves
// sb unchanged and runs on a fresh Scratch; a caller that optimizes block
// after block keeps one Scratch and calls its Optimize method instead.
func Optimize(sb *SuperBlock) *SuperBlock {
	out := &SuperBlock{Stmts: make([]Stmt, 0, len(sb.Stmts))}
	new(Scratch).Optimize(out, sb)
	return out
}

// Optimize writes the optimized form of sb into out, reusing out's statement
// array; out and sb must be distinct blocks. Its working state lives in x,
// and so do the substituted arguments of sb's dirty calls: out is valid until
// the next call on x.
func (x *Scratch) Optimize(out, sb *SuperBlock) {
	*out = SuperBlock{
		GuestAddr: sb.GuestAddr,
		NTemps:    sb.NTemps,
		NextJK:    sb.NextJK,
		Aux:       sb.Aux,
		Stmts:     out.Stmts[:0],
	}
	x.ts = zeroed(x.ts, int(sb.NTemps))
	x.used = zeroed(x.used, int(sb.NTemps))
	x.args = x.args[:0]

	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		var ns Stmt
		switch s.Kind {
		case SWrTmpExpr:
			e := x.subst(s.E1)
			switch e.Kind {
			case KindConst:
				// Every later read is substituted with the
				// value, so the filter below drops the statement.
				x.ts[s.Tmp] = tstate{hasKnown: true, known: e.Const}
			case KindRdTmp, KindGetReg:
				// Copy propagation. A register alias holds only
				// until the register is rewritten; PutReg drops it.
				x.ts[s.Tmp] = tstate{hasAlias: true, alias: e}
			}
			ns = Stmt{Kind: SWrTmpExpr, Tmp: s.Tmp, E1: e}
		case SWrTmpBinop:
			a, b := x.subst(s.E1), x.subst(s.E2)
			if a.Kind == KindConst && b.Kind == KindConst {
				v := EvalBinop(s.Op, a.Const, b.Const)
				x.ts[s.Tmp] = tstate{hasKnown: true, known: v}
				ns = Stmt{Kind: SWrTmpExpr, Tmp: s.Tmp, E1: ConstE(v)}
				break
			}
			ns = Stmt{Kind: SWrTmpBinop, Tmp: s.Tmp, Op: s.Op, E1: a, E2: b}
		case SWrTmpUnop:
			a := x.subst(s.E1)
			if a.Kind == KindConst {
				v := EvalUnop(s.Op, a.Const)
				x.ts[s.Tmp] = tstate{hasKnown: true, known: v}
				ns = Stmt{Kind: SWrTmpExpr, Tmp: s.Tmp, E1: ConstE(v)}
				break
			}
			ns = Stmt{Kind: SWrTmpUnop, Tmp: s.Tmp, Op: s.Op, E1: a}
		case SWrTmpLoad:
			ns = Stmt{Kind: SWrTmpLoad, Tmp: s.Tmp, Wd: s.Wd, E1: x.subst(s.E1)}
		case SStore:
			ns = Stmt{Kind: SStore, Wd: s.Wd, E1: x.subst(s.E1), E2: x.subst(s.E2)}
		case SPutReg:
			// Invalidate GetReg aliases of this register.
			for t := range x.ts {
				if st := &x.ts[t]; st.hasAlias && st.alias.Kind == KindGetReg && st.alias.Reg == s.Reg {
					st.hasAlias = false
				}
			}
			ns = Stmt{Kind: SPutReg, Reg: s.Reg, E1: x.subst(s.E1)}
		case SExit:
			ns = Stmt{Kind: SExit, E1: x.subst(s.E1), Target: s.Target, JK: s.JK}
		case SDirty:
			ns = *s
			if len(s.Args) > 0 {
				n := len(x.args)
				for _, a := range s.Args {
					x.args = append(x.args, x.subst(a))
				}
				ns.Args = x.args[n:len(x.args):len(x.args)]
			}
		default: // SIMark
			ns = *s
		}
		x.markReads(&ns)
		out.Append(ns)
	}
	out.Next = x.subst(sb.Next)
	x.mark(out.Next)

	// Dead-temporary elimination: the walk above marked every temp an
	// output statement reads, after substitution, so a temp that fed only
	// folded expressions has no readers left. Pure computations with
	// unread temps are dropped. Loads stay: a tool may instrument them,
	// and a dead load is still an access the guest performed.
	kept := out.Stmts[:0]
	for i := range out.Stmts {
		switch s := &out.Stmts[i]; s.Kind {
		case SWrTmpExpr, SWrTmpBinop, SWrTmpUnop:
			if !x.used[s.Tmp] {
				continue
			}
		}
		kept = append(kept, out.Stmts[i])
	}
	out.Stmts = kept
}

// subst replaces a read of a temp with its known value or alias.
func (x *Scratch) subst(e Expr) Expr {
	if e.Kind == KindRdTmp && int(e.Tmp) < len(x.ts) {
		s := &x.ts[e.Tmp]
		if s.hasKnown {
			return ConstE(s.known)
		}
		if s.hasAlias {
			return s.alias
		}
	}
	return e
}

// mark records a read of a temp.
func (x *Scratch) mark(e Expr) {
	if e.Kind == KindRdTmp && int(e.Tmp) < len(x.used) {
		x.used[e.Tmp] = true
	}
}

// markReads records every temp a statement reads.
func (x *Scratch) markReads(s *Stmt) {
	switch s.Kind {
	case SWrTmpExpr, SWrTmpUnop, SWrTmpLoad, SPutReg, SExit:
		x.mark(s.E1)
	case SWrTmpBinop, SStore:
		x.mark(s.E1)
		x.mark(s.E2)
	case SDirty:
		for _, a := range s.Args {
			x.mark(a)
		}
	}
}
