package dbi

// Shared-store adoption: the copy-on-attach seam between a core's compiled
// cache and the cross-core translation store (internal/tstore).
//
// A published unit's call table may hold dirty-call closures bound to the
// core and tool instance that compiled it. Adoption therefore copies that
// table and re-binds every call to an equivalent helper of the adopting
// core, reconstructed from the call's serializable (Name, Meta, Args)
// triple. The micro-ops and their side tables hold no closures, only call
// indices; they are immutable once compiled and shared by reference. Code
// without dirty calls — every nop-tool block, and any block the tool left
// uninstrumented — is shared whole.
//
// Publication is gated the other way: only code whose dirty calls all
// carry a registered name and well-formed Meta is published. A tool that
// inserts an unregistered helper keeps its blocks core-private — correct,
// just not amortized.

import (
	"fmt"

	"repro/internal/tstore"
	"repro/internal/vex"
)

// publish shares freshly compiled code through the store, if every dirty
// call in it can be re-bound by an adopting core.
func (c *Core) publish(addr uint64, code *vex.Compiled) {
	if c.Shared == nil {
		return
	}
	for i := range code.Calls {
		if d := &code.Calls[i]; d.Name != "flush_accesses" || len(d.Meta) != 2*len(d.Args) {
			return
		}
	}
	c.Shared.Put(&tstore.Unit{Addr: addr, Code: code})
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

// adopt attaches the shared store's code for the block at addr, or returns
// nil when the store has none this core can bind. It replays the
// translation-time bookkeeping — minus Translations, which is the point.
func (c *Core) adopt(addr uint64) *vex.Compiled {
	if c.Shared == nil {
		return nil
	}
	u := c.Shared.Get(addr)
	if u == nil {
		return nil
	}
	code, err := c.adoptCode(u.Code)
	if err != nil {
		return nil // unadoptable: fall back to the local pipeline
	}
	c.SharedHits++
	c.cacheStmts += uint64(code.NStmts)
	c.histBlockStmts.Observe(float64(code.NStmts))
	return code
}

// adoptCode binds shared code to this core: code without dirty calls is
// shared whole; otherwise the call table is copied and each call re-bound.
// The op array and its side tables (PCs/ICs) are read-only and always
// shared.
func (c *Core) adoptCode(code *vex.Compiled) (*vex.Compiled, error) {
	if len(code.Calls) == 0 {
		return code, nil
	}
	cp := *code
	cp.Calls = make([]vex.DirtyOp, len(code.Calls))
	for i := range code.Calls {
		d := code.Calls[i]
		fn, err := c.bindDirty(d.Name, d.Meta, len(d.Args))
		if err != nil {
			return nil, err
		}
		d.Fn = fn
		cp.Calls[i] = d
	}
	return &cp, nil
}
