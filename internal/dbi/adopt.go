package dbi

// Shared-store adoption: the copy-on-attach seam between a core's private
// caches and the cross-core translation store (internal/tstore).
//
// A published unit's IR may embed dirty-call closures bound to the core and
// tool instance that translated it. Adoption therefore copies the statement
// (or micro-op) list and re-binds every dirty call to an equivalent helper
// of the adopting core, reconstructed from the statement's serializable
// (Name, Meta, Args) triple. Blocks without dirty calls — every nop-tool
// block, and any block the tool left uninstrumented — are shared by
// reference: the IR is immutable after instrumentation, so reference
// sharing is safe and free.
//
// Publication is gated the other way: only blocks whose dirty calls all
// carry a registered name and well-formed Meta are published. A tool that
// inserts an unregistered helper keeps its blocks core-private — correct,
// just not amortized.

import (
	"fmt"

	"repro/internal/tstore"
	"repro/internal/vex"
)

// sharedGet probes the shared store.
func (c *Core) sharedGet(addr uint64) *tstore.Unit {
	if c.Shared == nil {
		return nil
	}
	return c.Shared.Get(addr)
}

// sharedPut publishes a freshly translated block, if portable.
func (c *Core) sharedPut(addr uint64, sb *vex.SuperBlock) {
	if c.Shared == nil || !portableSB(sb) {
		return
	}
	c.Shared.Put(&tstore.Unit{Addr: addr, SB: sb})
}

// sharedPutCode attaches a locally compiled form to the block's published
// unit (no-op when the block was not published).
func (c *Core) sharedPutCode(addr uint64, code *vex.Compiled) {
	if c.Shared == nil {
		return
	}
	c.Shared.PutCode(addr, code)
}

// portableSB reports whether every dirty call in sb can be re-bound by an
// adopting core.
func portableSB(sb *vex.SuperBlock) bool {
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		if s.Kind != vex.SDirty {
			continue
		}
		if s.Name != "flush_accesses" || len(s.Meta) != 2*len(s.Args) {
			return false
		}
	}
	return true
}

// bindFlush reconstructs a flush_accesses helper for this core from the
// serializable Meta words (pc, width|store-bit per access).
func (c *Core) bindFlush(meta []uint64, nargs int) (vex.DirtyFn, error) {
	sink, ok := c.tool.(AccessSink)
	if !ok {
		return nil, fmt.Errorf("dbi: adopt: tool %T is not an AccessSink", c.tool)
	}
	if len(meta) != 2*nargs {
		return nil, fmt.Errorf("dbi: adopt: flush_accesses meta %d words for %d args", len(meta), nargs)
	}
	site := &flushSite{c: c, sink: sink, meta: meta}
	return site.flush, nil
}

// bindDirty dispatches on the registered helper name.
func (c *Core) bindDirty(name string, meta []uint64, nargs int) (vex.DirtyFn, error) {
	if name == "flush_accesses" {
		return c.bindFlush(meta, nargs)
	}
	return nil, fmt.Errorf("dbi: adopt: unknown dirty helper %q", name)
}

// adoptSB attaches a shared unit's IR to this core: re-binds dirty helpers
// when present (copying the statement list first), installs the block in
// the local cache and replays the translation-time bookkeeping — minus
// Translations, which is the point.
func (c *Core) adoptSB(u *tstore.Unit) (*vex.SuperBlock, error) {
	sb := u.SB
	dirty := false
	for i := range sb.Stmts {
		if sb.Stmts[i].Kind == vex.SDirty {
			dirty = true
			break
		}
	}
	if dirty {
		cp := *sb
		cp.Stmts = append([]vex.Stmt(nil), sb.Stmts...)
		for i := range cp.Stmts {
			s := &cp.Stmts[i]
			if s.Kind != vex.SDirty {
				continue
			}
			fn, err := c.bindDirty(s.Name, s.Meta, len(s.Args))
			if err != nil {
				return nil, err
			}
			s.Fn = fn
		}
		sb = &cp
	}
	if c.Validate {
		if err := sb.Validate(); err != nil {
			return nil, err
		}
	}
	c.cache[u.Addr] = sb
	c.SharedHits++
	c.cacheStmts += uint64(len(sb.Stmts))
	c.histBlockStmts.Observe(float64(len(sb.Stmts)))
	return sb, nil
}

// adoptCode attaches a shared unit's compiled form: micro-op arrays without
// dirty calls are shared by reference; otherwise the op list is copied and
// each dirty op re-bound. The side tables (PCs/ICs) are read-only and
// always shared.
func (c *Core) adoptCode(u *tstore.Unit) (*vex.Compiled, error) {
	code := u.Code
	dirty := false
	for i := range code.Ops {
		if code.Ops[i].Code == vex.UDirty {
			dirty = true
			break
		}
	}
	if !dirty {
		return code, nil
	}
	cp := *code
	cp.Ops = append([]vex.UOp(nil), code.Ops...)
	for i := range cp.Ops {
		op := &cp.Ops[i]
		if op.Code != vex.UDirty || op.Dirty == nil {
			continue
		}
		d := *op.Dirty
		fn, err := c.bindDirty(d.Name, d.Meta, len(d.Args))
		if err != nil {
			return nil, err
		}
		d.Fn = fn
		op.Dirty = &d
	}
	return &cp, nil
}
