package dbi

import "repro/internal/vex"

// arena is a core's translation scratch memory, the analog of the temporary
// arena LibVEX takes a translation's intermediates from and clears after
// each one. Translate, Optimize and InstrumentAccesses each write their
// output into a scratch superblock handed out by block, flush calls take
// their argument lists from exprs, and Optimize and Compile keep their
// per-temp tables and op buffers in vx. translateFresh copies the finished
// block out (detach) and Compile copies out its code, so nothing a cache, a
// chain or the shared store keeps points into the arena.
//
// The arena belongs to one Core. A core translates one block at a time (its
// scheduler runs one guest thread at a time), so it needs no locking, and
// its buffers stay sized to the blocks of the program it runs.
type arena struct {
	// blocks are the scratch superblocks; the first used of them are
	// handed out in the current translation.
	blocks []*vex.SuperBlock
	used   int
	// exprs holds the argument lists of flush calls.
	exprs []vex.Expr
	// pts is InstrumentAccesses' list of accesses awaiting a flush.
	pts []accessPoint
	vx  vex.Scratch
}

// reset starts a translation: every scratch block and argument list is free
// again.
func (a *arena) reset() {
	a.used = 0
	a.exprs = a.exprs[:0]
}

// block hands out an empty scratch superblock, distinct from every other
// block handed out since the last reset.
func (a *arena) block() *vex.SuperBlock {
	if a.used == len(a.blocks) {
		a.blocks = append(a.blocks, new(vex.SuperBlock))
	}
	sb := a.blocks[a.used]
	a.used++
	*sb = vex.SuperBlock{Stmts: sb.Stmts[:0]}
	return sb
}

// detach copies a finished block out of the arena into memory of its own:
// the statements into one right-sized slice and the arguments of every
// dirty call into another.
func detach(sb *vex.SuperBlock) *vex.SuperBlock {
	out := new(vex.SuperBlock)
	*out = *sb
	out.Stmts = make([]vex.Stmt, len(sb.Stmts))
	copy(out.Stmts, sb.Stmts)
	n := 0
	for i := range out.Stmts {
		n += len(out.Stmts[i].Args)
	}
	if n == 0 {
		return out
	}
	args := make([]vex.Expr, 0, n)
	for i := range out.Stmts {
		s := &out.Stmts[i]
		if s.Args == nil {
			continue
		}
		k := len(args)
		args = append(args, s.Args...)
		s.Args = args[k:len(args):len(args)]
	}
	return out
}
