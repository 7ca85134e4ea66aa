package dbi

// Batched tool event delivery — the analog of Valgrind tools queueing events
// per superblock instead of calling into the tool on every guest memory
// access. A tool that only needs the access stream (address, width, PC,
// direction) instruments through InstrumentAccesses and receives the accesses
// of a whole superblock segment in one FlushAccesses callback, amortizing the
// dirty-call overhead that dominates heavyweight instrumentation.
//
// Correctness rests on two properties of the translation pipeline:
//
//   - the translator never emits mid-block SDirty statements: host calls and
//     client requests are block-terminal jump kinds, so all tool-visible
//     state changes (frees, segment switches, sync events) happen at block
//     boundaries — delivering a block's accesses at its end observes exactly
//     the same tool state as delivering them one by one;
//   - temps are SSA (written exactly once, Validate-enforced) and constants
//     are immutable, so an access's address expression still evaluates to
//     the access-time value at the flush point. Register-kind addresses may
//     be overwritten before the block ends, so InstrumentAccesses snapshots
//     them into fresh temps at the access point.
//
// A batch is flushed before every conditional exit (an exit taken mid-block
// must not swallow the accesses that preceded it) and at the block end. A
// guest fault ends the block before its next flush, so the tool never sees
// the accesses of the segment that faulted. The differential suite
// (diff_test.go) proves the batched stream equals the per-access reference
// in dbitest, one dirty call per access as classic Valgrind helpers make
// them, on both engines.

import (
	"repro/internal/vex"
	"repro/internal/vm"
)

// Access is one recorded guest memory access, delivered to AccessSink tools.
type Access struct {
	// PC is the guest instruction performing the access.
	PC uint64
	// Addr is the accessed address, evaluated at the access point.
	Addr uint64
	// Wd is the access width in bytes.
	Wd uint8
	// Store is true for writes, false for reads.
	Store bool
}

// AccessSink receives batched access records. The batch slice is owned by the
// core and reused across flushes: sinks must consume it before returning and
// must not retain it.
type AccessSink interface {
	FlushAccesses(t *vm.Thread, batch []Access)
}

// accessPoint is the compile-time half of one queued access: everything known
// at instrumentation time plus the expression yielding the address at run
// time (a constant or an SSA temp; registers are snapshotted — see flush).
type accessPoint struct {
	pc    uint64
	wd    uint8
	store bool
	addr  vex.Expr
}

// accessMetaStore is the store-direction bit in an access's packed Meta
// word (low byte: width). Two Meta words per access — PC, then
// width|direction — serialize a flush site so another core (or another
// process, via the persistent tier) can re-bind an equivalent one.
const accessMetaStore = 1 << 8

// flushMeta packs a flush site's access points into Stmt.Meta.
func flushMeta(pts []accessPoint) []uint64 {
	meta := make([]uint64, 0, 2*len(pts))
	for i := range pts {
		w := uint64(pts[i].wd)
		if pts[i].store {
			w |= accessMetaStore
		}
		meta = append(meta, pts[i].pc, w)
	}
	return meta
}

// flushSite is one flush callback baked into an instrumented block. Its dirty
// statement's arguments are the address expressions of the queued accesses in
// program order; flush marries them with the compile-time descriptors into
// the core's reusable batch buffer and hands the batch to the sink.
type flushSite struct {
	c    *Core
	sink AccessSink
	pts  []accessPoint
}

// flush is the DirtyFn delivering the site's batch.
func (f *flushSite) flush(ctx any, args []uint64) uint64 {
	buf := f.c.batchBuf[:0]
	for i := range f.pts {
		p := &f.pts[i]
		buf = append(buf, Access{PC: p.pc, Addr: args[i], Wd: p.wd, Store: p.store})
	}
	f.c.batchBuf = buf
	f.c.AccessesDelivered += uint64(len(buf))
	f.sink.FlushAccesses(ctx.(*vm.Thread), buf)
	return 0
}

// InstrumentAccesses rewrites a superblock so every guest load and store is
// delivered to sink, one flush per superblock segment, returning the
// instrumented block and the number of load/store sites instrumented. Tools
// call it from their Instrument hook instead of inserting one dirty call per
// access; the result is cached like any instrumented translation.
func (c *Core) InstrumentAccesses(sb *vex.SuperBlock, sink AccessSink) (out *vex.SuperBlock, loads, stores uint64) {
	out = &vex.SuperBlock{
		GuestAddr: sb.GuestAddr, NTemps: sb.NTemps,
		Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux,
		Stmts: make([]vex.Stmt, 0, len(sb.Stmts)+1),
	}
	var pending []accessPoint
	flush := func() {
		if len(pending) == 0 {
			return
		}
		site := &flushSite{c: c, sink: sink, pts: pending}
		args := make([]vex.Expr, len(pending))
		for i := range pending {
			args[i] = pending[i].addr
		}
		out.Stmts = append(out.Stmts, vex.Stmt{
			Kind: vex.SDirty, Tmp: vex.NoTemp,
			Name: "flush_accesses", Fn: site.flush, Args: args,
			Meta: flushMeta(pending),
		})
		pending = nil
	}
	pc := sb.GuestAddr
	for _, s := range sb.Stmts {
		switch s.Kind {
		case vex.SIMark:
			pc = s.Addr
		case vex.SExit:
			// An exit taken here must have already delivered the
			// accesses that preceded it.
			flush()
		case vex.SWrTmpLoad, vex.SStore:
			addr := s.E1
			if addr.Kind == vex.KindGetReg {
				// The register may be overwritten before the flush
				// executes; snapshot its access-time value into a
				// fresh (SSA) temp.
				t := out.NewTemp()
				out.Append(vex.Stmt{Kind: vex.SWrTmpExpr, Tmp: t, E1: addr})
				addr = vex.TmpE(t)
			}
			pending = append(pending, accessPoint{
				pc: pc, wd: uint8(s.Wd), store: s.Kind == vex.SStore, addr: addr,
			})
			if s.Kind == vex.SWrTmpLoad {
				loads++
			} else {
				stores++
			}
		}
		out.Stmts = append(out.Stmts, s)
	}
	flush()
	return out, loads, stores
}
