package dbi

// Batched tool event delivery — the analog of Valgrind tools queueing events
// per superblock instead of calling into the tool on every guest memory
// access. A tool that only needs the access stream (address, width, PC,
// direction) instruments through InstrumentAccesses and receives the accesses
// of a whole superblock segment in one FlushAccesses callback, amortizing the
// dirty-call overhead that dominates heavyweight instrumentation.
//
// Delivery is one pass: a Batch is a read-only view over the flush call's
// arguments, which the engine has already resolved to addresses, and the
// site's Meta words, so the core copies nothing per access. A sink reads the
// batch in place during FlushAccesses and must not retain it.
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

// Access is one guest memory access as a record, for callers that want one
// (NewBatch builds a batch from them).
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

// Batch is the accesses of one flush, in program order. It views the
// addresses the engine resolved for the flush call and the site's Meta
// words (PC, then width|store, per access) without copying them: both
// belong to the engine and the translation, so a sink reads a batch during
// FlushAccesses and must not retain it.
type Batch struct {
	addrs []uint64
	meta  []uint64
}

// NewBatch builds a batch from access records: the per-access reference
// delivery and tests use it; production batches view a flush call in place.
func NewBatch(accs []Access) Batch {
	b := Batch{addrs: make([]uint64, len(accs)), meta: make([]uint64, 2*len(accs))}
	for i, a := range accs {
		w := uint64(a.Wd)
		if a.Store {
			w |= accessMetaStore
		}
		b.addrs[i], b.meta[2*i], b.meta[2*i+1] = a.Addr, a.PC, w
	}
	return b
}

// The accessors take a pointer so that a sink's loop reads the batch where
// it lies: a Batch is too large for the compiler to keep in registers, and a
// value receiver copies all of it at every call.

// Len returns the number of accesses in the batch.
func (b *Batch) Len() int { return len(b.addrs) }

// Addr returns access i's address, evaluated at the access point.
func (b *Batch) Addr(i int) uint64 { return b.addrs[i] }

// PC returns the guest instruction performing access i.
func (b *Batch) PC(i int) uint64 { return b.meta[2*i] }

// Wd returns access i's width in bytes.
func (b *Batch) Wd(i int) uint8 { return uint8(b.meta[2*i+1]) }

// Store reports whether access i is a write.
func (b *Batch) Store(i int) bool { return b.meta[2*i+1]&accessMetaStore != 0 }

// AccessSink receives batched accesses. See Batch for what a sink may keep.
type AccessSink interface {
	FlushAccesses(t *vm.Thread, b Batch)
}

// accessPoint is the compile-time half of one queued access: everything known
// at instrumentation time plus the expression yielding the address at run
// time (a constant or an SSA temp; InstrumentAccesses snapshots registers).
type accessPoint struct {
	pc    uint64
	wd    uint8
	store bool
	addr  vex.Expr
}

// accessMetaStore is the store-direction bit in an access's packed Meta
// word (low byte: width). Two Meta words per access — PC, then
// width|direction — describe a flush site so another core can re-bind an
// equivalent one.
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
// program order, and meta is the statement's Meta: the PC and packed
// width|direction of each access. flush hands the sink the two as a Batch.
type flushSite struct {
	c    *Core
	sink AccessSink
	meta []uint64
}

// flush is the DirtyFn delivering the site's batch.
func (f *flushSite) flush(ctx any, args []uint64) uint64 {
	f.c.AccessesDelivered += uint64(len(args))
	f.sink.FlushAccesses(ctx.(*vm.Thread), Batch{addrs: args, meta: f.meta})
	return 0
}

// InstrumentAccesses rewrites a superblock so every guest load and store is
// delivered to sink, one flush per superblock segment, returning the
// instrumented block and the number of load/store sites instrumented. Tools
// call it from their Instrument hook instead of inserting one dirty call per
// access.
//
// The returned block borrows the core's translation arena, like the block
// Instrument receives: it is valid only until Instrument returns. The core
// copies whatever block Instrument returns before caching it, so a tool
// returns this block as is and keeps no pointer into it.
func (c *Core) InstrumentAccesses(sb *vex.SuperBlock, sink AccessSink) (out *vex.SuperBlock, loads, stores uint64) {
	a := &c.arena
	out = a.block()
	out.GuestAddr, out.NTemps = sb.GuestAddr, sb.NTemps
	out.Next, out.NextJK, out.Aux = sb.Next, sb.NextJK, sb.Aux
	pending := a.pts[:0]
	pc := sb.GuestAddr
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		switch s.Kind {
		case vex.SIMark:
			pc = s.Addr
		case vex.SExit:
			// An exit taken here must have already delivered the
			// accesses that preceded it.
			pending = c.flushAccesses(out, pending, sink)
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
		out.Append(*s)
	}
	a.pts = c.flushAccesses(out, pending, sink)
	return out, loads, stores
}

// flushAccesses appends to out the flush call delivering the pending
// accesses, taking its argument list from the arena, and returns the
// emptied list.
func (c *Core) flushAccesses(out *vex.SuperBlock, pending []accessPoint, sink AccessSink) []accessPoint {
	if len(pending) == 0 {
		return pending
	}
	a := &c.arena
	k := len(a.exprs)
	for i := range pending {
		a.exprs = append(a.exprs, pending[i].addr)
	}
	site := &flushSite{c: c, sink: sink, meta: flushMeta(pending)}
	out.Append(vex.Stmt{
		Kind: vex.SDirty, Tmp: vex.NoTemp,
		Name: "flush_accesses", Fn: site.flush,
		Args: a.exprs[k:len(a.exprs):len(a.exprs)], Meta: site.meta,
	})
	return pending[:0]
}
