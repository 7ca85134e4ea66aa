// Countgrind: write your own Valgrind-style tool against the DBI framework.
//
// The plugin contract is the same one Taskgrind uses (dbi.Tool): receive
// every translated superblock once, inject Dirty helper calls next to the
// memory operations you care about, and collect results at Fini. This tool
// counts loads and stores per function symbol — a "cachegrind-lite".
//
//	go run ./examples/countgrind
package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/lulesh"
	"repro/internal/vex"
	"repro/internal/vm"
)

// countTool tallies memory accesses per function.
type countTool struct {
	dbi.NopTool
	loads  map[string]uint64
	stores map[string]uint64
}

func (ct *countTool) Name() string { return "countgrind" }

// Instrument injects one Dirty call per load/store. The symbol name is
// resolved at translation time (it is per-block), so the runtime helper is a
// single map increment.
func (ct *countTool) Instrument(c *dbi.Core, sb *vex.SuperBlock) *vex.SuperBlock {
	sym := "???"
	if s := c.M.Image.SymbolFor(sb.GuestAddr); s != nil {
		sym = s.Name
	}
	out := &vex.SuperBlock{
		GuestAddr: sb.GuestAddr, NTemps: sb.NTemps,
		Next: sb.Next, NextJK: sb.NextJK, Aux: sb.Aux,
	}
	for i := range sb.Stmts {
		s := &sb.Stmts[i]
		switch s.Kind {
		case vex.SWrTmpLoad:
			out.Dirty("count_ld", func(any, []uint64) uint64 { ct.loads[sym]++; return 0 })
		case vex.SStore:
			out.Dirty("count_st", func(any, []uint64) uint64 { ct.stores[sym]++; return 0 })
		}
		out.AppendFrom(sb, s)
	}
	return out
}

func (ct *countTool) ClientRequest(t *vm.Thread, code int32, args [6]uint64) uint64 { return 0 }

func (ct *countTool) Fini(c *dbi.Core) {
	type row struct {
		sym    string
		ld, st uint64
	}
	var rows []row
	for sym, n := range ct.loads {
		rows = append(rows, row{sym, n, ct.stores[sym]})
	}
	for sym, n := range ct.stores {
		if _, seen := ct.loads[sym]; !seen {
			rows = append(rows, row{sym, 0, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ld+rows[i].st > rows[j].ld+rows[j].st })
	fmt.Printf("%-24s %12s %12s\n", "function", "loads", "stores")
	for i, r := range rows {
		if i >= 12 {
			break
		}
		fmt.Printf("%-24s %12d %12d\n", r.sym, r.ld, r.st)
	}
	fmt.Printf("(%d blocks translated)\n", c.Translations)
}

func main() {
	// Profile the LULESH proxy under the custom tool.
	b, err := lulesh.Build(lulesh.Params{S: 6, TEL: 2, TNL: 2, Iters: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	_ = guest.TextBase
	ct := &countTool{loads: map[string]uint64{}, stores: map[string]uint64{}}
	res, _, err := harness.BuildAndRun(b, harness.Setup{Tool: ct, Seed: 1, Threads: 4})
	if err != nil || res.Err != nil {
		fmt.Fprintln(os.Stderr, err, res.Err)
		os.Exit(2)
	}
}
