// Package dbitest holds the per-access reference delivery that tests hold
// dbi.Core.InstrumentAccesses to. Production tools receive their accesses in
// one flush per superblock segment; the reference hands each guest load and
// store to the tool on its own, through a dirty call placed before the
// access executes: the classic Valgrind helper-per-access semantics. A tool
// must observe the same stream, and so render the same reports, either way.
package dbitest

import (
	"repro/internal/dbi"
	"repro/internal/vex"
	"repro/internal/vm"
)

// PerAccess instruments sb so that sink receives every guest load and store
// as its own one-access batch, before the access executes.
func PerAccess(sb *vex.SuperBlock, sink dbi.AccessSink) *vex.SuperBlock {
	out := &vex.SuperBlock{GuestAddr: sb.GuestAddr, NTemps: sb.NTemps, Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux}
	pc := sb.GuestAddr
	for _, s := range sb.Stmts {
		switch s.Kind {
		case vex.SIMark:
			pc = s.Addr
		case vex.SWrTmpLoad, vex.SStore:
			acc := []dbi.Access{{PC: pc, Wd: uint8(s.Wd), Store: s.Kind == vex.SStore}}
			out.Dirty("access", func(ctx any, args []uint64) uint64 {
				acc[0].Addr = args[0]
				sink.FlushAccesses(ctx.(*vm.Thread), dbi.NewBatch(acc))
				return 0
			}, s.E1)
		}
		out.Stmts = append(out.Stmts, s)
	}
	return out
}

// PerAccessTool runs a tool that instruments through InstrumentAccesses on
// the reference path instead. The tool's own Instrument still sees every
// block, so its filters and counters run as usual, but each block it
// instruments is rebuilt by PerAccess. Tool must implement dbi.AccessSink.
type PerAccessTool struct{ dbi.Tool }

// Attach forwards to the wrapped tool.
func (p PerAccessTool) Attach(c *dbi.Core) {
	if a, ok := p.Tool.(dbi.Attacher); ok {
		a.Attach(c)
	}
}

// Instrument implements dbi.Tool.
func (p PerAccessTool) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	if p.Tool.Instrument(c, sb) == sb {
		return sb // the tool leaves this block alone
	}
	return PerAccess(sb, p.Tool.(dbi.AccessSink))
}
