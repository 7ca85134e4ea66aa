// Package dbi is the dynamic binary instrumentation framework — the analog
// of the Valgrind core in the paper. It translates guest basic blocks to
// flat VEX-like IR just in time, hands every translated block to the loaded
// tool plugin for instrumentation, caches translations, and executes the
// instrumented IR. It also provides the facilities Valgrind tools rely on:
// client requests, function replacement (host-call redirection), shadow call
// stacks, and a heap-allocation registry with captured allocation stacks.
package dbi

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/tstore"
	"repro/internal/vex"
	"repro/internal/vm"
)

// Tool is the plugin interface, mirroring a Valgrind tool: it gets every
// translated superblock once (at translation time) and may rewrite it, and
// receives the framework's runtime callbacks.
type Tool interface {
	// Name identifies the tool in reports.
	Name() string
	// Instrument rewrites a freshly translated superblock. It runs once
	// per guest block. The input block, like a block InstrumentAccesses
	// returns, lives in the core's translation arena and is valid only
	// until Instrument returns; Instrument may return it, rewrite it or
	// build a new block. The core copies whatever block Instrument
	// returns and caches the copy.
	Instrument(c *Core, sb *vex.SuperBlock) *vex.SuperBlock
	// ClientRequest handles an OpCreq from guest code (or from host-side
	// runtime bridges). The return value is delivered in R0.
	ClientRequest(t *vm.Thread, code int32, args [6]uint64) uint64
	// ThreadStart/ThreadExit track guest thread lifetime.
	ThreadStart(t *vm.Thread)
	ThreadExit(t *vm.Thread)
	// Fini runs after the guest program terminates (analysis passes).
	Fini(c *Core)
}

// NopTool is an embeddable do-nothing Tool.
type NopTool struct{}

// Name implements Tool.
func (NopTool) Name() string { return "none" }

// Instrument implements Tool (identity).
func (NopTool) Instrument(_ *Core, sb *vex.SuperBlock) *vex.SuperBlock { return sb }

// ClientRequest implements Tool.
func (NopTool) ClientRequest(*vm.Thread, int32, [6]uint64) uint64 { return 0 }

// ThreadStart implements Tool.
func (NopTool) ThreadStart(*vm.Thread) {}

// ThreadExit implements Tool.
func (NopTool) ThreadExit(*vm.Thread) {}

// Fini implements Tool.
func (NopTool) Fini(*Core) {}

// AllocBlock describes one live (or, in no-free mode, ever-made) heap
// allocation, with the stack captured at allocation time — the information
// Taskgrind's error reports print ("allocated in block ... from task.c:3").
type AllocBlock struct {
	Addr  uint64
	Size  uint64
	Seq   uint64 // allocation sequence number
	Stack []uint64
	Freed bool
}

// Core couples a vm.Machine with a Tool: the running DBI session.
type Core struct {
	M    *vm.Machine
	tool Tool

	// cache is the IR engine's translation cache; the compiled engine
	// keeps no IR.
	cache map[uint64]*vex.SuperBlock
	// code is the compiled engine's translation cache: one slot per guest
	// instruction, indexed by (pc - guest.TextBase) / guest.InstrBytes and
	// sized from the image once. Guest text is fixed and dense, so the
	// lookup is exact and a filled slot never goes stale.
	code []*vex.Compiled
	// engineFixed is set when a CompileTimeTool installed the direct
	// engine with access hooks; SelectEngine then refuses to override.
	engineFixed bool

	// Shared, when set, is the content-addressed translation store tier
	// the compiled engine consults between its cache and fresh
	// translation: local miss -> adopt a published unit's code
	// (copy-on-attach, dirty helpers re-bound to this core) -> translate
	// and compile fresh and publish. The store must be keyed for exactly
	// this core's (image, tool) universe — the harness derives the key;
	// see internal/tstore. The IR engine ignores it.
	Shared *tstore.Store

	// Translations counts distinct blocks this core translated itself
	// (blocks adopted from the shared store do not count).
	Translations uint64
	// TranslateNanos accumulates wall time spent in the translation
	// pipeline (decode, optimize, instrument) and CompileNanos the time
	// lowering instrumented IR to micro-ops. The two phases are timed
	// independently. Together they are the non-execution share of a run's
	// wall clock; the perf benchmark subtracts them to report pure
	// execution throughput.
	TranslateNanos uint64
	CompileNanos   uint64
	// CacheHits counts dispatches served from a translation cache (the
	// superblock cache under the IR engine, the slot table under the
	// compiled engine). CacheMisses counts dispatches no local cache
	// served — each is resolved either from the shared store (SharedHits)
	// or by a fresh translation (Translations), so
	// CacheMisses == SharedHits + Translations.
	CacheHits   uint64
	CacheMisses uint64
	// SharedHits counts blocks adopted from the shared translation store.
	SharedHits uint64
	// Compiles counts superblocks lowered to micro-ops.
	Compiles uint64
	// ChainHits and ChainMisses are always zero: the engine does not chain
	// blocks. They are kept because bench/tgbench/runner.go reads them.
	ChainHits, ChainMisses uint64
	// cacheStmts counts the IR statements of the cached translations (for
	// compiled ones, of the IR they were lowered from).
	cacheStmts uint64

	// arena is the translation scratch memory the pipeline stages write
	// into; only compiled code, or the IR engine's copy of a block, leaves
	// it.
	arena arena
	// DirtyCalls counts tool dirty-call executions (both engines): the
	// callback granularity, one per flush for InstrumentAccesses tools.
	DirtyCalls uint64
	// AccessesDelivered counts guest accesses delivered through
	// InstrumentAccesses flush callbacks.
	AccessesDelivered uint64

	// Obs carries the optional observability hooks; nil when disabled.
	Obs *obs.Hooks
	// ctrCreqs and histBlockStmts are pre-resolved metrics (nil-safe).
	ctrCreqs       *obs.Counter
	histBlockStmts *obs.Histogram

	// allocation registry, sorted by Addr for lookup.
	allocs   []*AllocBlock
	allocSeq uint64

	// PanicHook, when set, is consulted once per compiled-engine block
	// dispatch; returning true raises a host-side panic from inside the
	// dispatcher (fault injection's model of a JIT defect). The IR oracle
	// never consults it, so an engine fallback sidesteps the injected
	// defect.
	PanicHook func() bool

	// Validate makes the engine validate every instrumented block
	// (debug mode).
	Validate bool
}

// Attacher is implemented by tools that need the core before the run starts
// (to install redirections, register shadow-footprint reporting, ...).
type Attacher interface {
	Attach(c *Core)
}

// Identifier is implemented by tools whose instrumentation depends on
// configuration beyond the tool type: the translation store keys units by
// ToolID instead of Name, so two same-named instances with different
// instrumentation (e.g. taskgrind with and without its ignore-lists) never
// share translations.
type Identifier interface {
	ToolID() string
}

// CompileTimeTool is implemented by tools modelling compile-time (or static
// binary rewriting) instrumentation: instead of the heavyweight IR engine,
// they run on the direct interpreter with compiled-in access hooks — the
// architectural difference behind Archer's 10x vs Taskgrind's 100x
// overhead in the paper.
type CompileTimeTool interface {
	// AccessHooks returns the load/store checks, or nils to run on the
	// translating engine after all.
	AccessHooks() (load, store vm.AccessHook)
	// InstrumentsSym reports whether the checks cover the instructions of
	// the named function ("" for code outside every symbol); the core
	// builds the image's instrumentation filter from it with SymbolFilter.
	InstrumentsSym(sym string) bool
}

// New wraps a machine with a tool and installs the translating engine and
// hooks. Pass nil for tool to run the direct engine (no instrumentation)
// while keeping Core facilities available. Threads that already exist (the
// main thread) get their ThreadStart callback immediately.
func New(m *vm.Machine, tool Tool) *Core {
	c := &Core{M: m, tool: tool}
	if tool != nil {
		installed := false
		if ct, ok := tool.(CompileTimeTool); ok {
			if load, store := ct.AccessHooks(); load != nil || store != nil {
				filter := SymbolFilter(m.Image, ct.InstrumentsSym)
				m.Eng = &vm.DirectEngine{LoadHook: load, StoreHook: store, Filter: filter}
				installed = true
				c.engineFixed = true
			}
		}
		if !installed {
			c.installCompiled()
		}
		m.Hooks.ClientRequest = func(t *vm.Thread, code int32, args [6]uint64) uint64 {
			c.observeCreq(t, code)
			return tool.ClientRequest(t, code, args)
		}
		m.Hooks.ThreadStart = tool.ThreadStart
		m.Hooks.ThreadExit = tool.ThreadExit
		if a, ok := tool.(Attacher); ok {
			a.Attach(c)
		}
		for _, t := range m.Threads() {
			tool.ThreadStart(t)
		}
	}
	return c
}

// Tool returns the loaded tool (nil when uninstrumented).
func (c *Core) Tool() Tool { return c.tool }

// Engine names accepted by SelectEngine.
const (
	// EngineCompiled executes pre-lowered micro-ops (the default for
	// instrumenting tools).
	EngineCompiled = "compiled"
	// EngineIR is the reference IR interpreter, kept as the differential-
	// testing oracle for the compiled engine.
	EngineIR = "ir"
)

// SelectEngine switches the execution engine. Call before the run starts.
// Tools that fixed the engine themselves (compile-time instrumentation via
// AccessHooks) cannot be overridden.
func (c *Core) SelectEngine(name string) error {
	if c.engineFixed {
		return fmt.Errorf("dbi: tool %s uses compile-time instrumentation; engine fixed", c.tool.Name())
	}
	switch name {
	case "", EngineCompiled:
		c.installCompiled()
	case EngineIR:
		if c.cache == nil {
			c.cache = make(map[uint64]*vex.SuperBlock)
		}
		c.M.Eng = &irEngine{c: c}
	default:
		return fmt.Errorf("dbi: unknown engine %q (have %q, %q)", name, EngineCompiled, EngineIR)
	}
	return nil
}

// installCompiled installs the compiled engine, with its slot table on
// the first install: cores on the direct interpreter never translate, so
// they allocate neither the slot table nor the IR engine's cache.
func (c *Core) installCompiled() {
	if c.code == nil {
		c.code = make([]*vex.Compiled, len(c.M.Image.Text))
	}
	c.M.Eng = &compiledEngine{c: c}
}

// EngineFixed reports whether the tool fixed the engine itself
// (compile-time instrumentation on the direct interpreter). Such cores
// never translate, so a shared translation store does not apply.
func (c *Core) EngineFixed() bool { return c.engineFixed }

// SetObs attaches observability hooks to the core (and its machine) and
// pre-resolves the hot-path metrics, so translation and client-request
// sites increment through nil-safe pointers instead of registry lookups.
func (c *Core) SetObs(h *obs.Hooks) {
	c.Obs = h
	c.M.Obs = h
	if h != nil && h.Metrics != nil {
		c.ctrCreqs = h.Metrics.Counter("core_client_requests_total")
		c.histBlockStmts = h.Metrics.Histogram("dbi_block_stmts")
	} else {
		c.ctrCreqs = nil
		c.histBlockStmts = nil
	}
}

// CacheStmts returns the IR statement count of the cached translations; a
// compiled translation counts the statements it was lowered from.
func (c *Core) CacheStmts() uint64 { return c.cacheStmts }

// Run executes the program to completion and then runs the tool's Fini.
func (c *Core) Run() error {
	if err := c.M.Run(); err != nil {
		return err
	}
	if c.tool != nil {
		c.tool.Fini(c)
	}
	return nil
}

// ClientRequestFromHost lets host-side runtime bridges (like the built-in
// OMPT tool) issue client requests on behalf of a guest thread, exactly as
// if the thread had executed an OpCreq.
func (c *Core) ClientRequestFromHost(t *vm.Thread, code int32, args [6]uint64) uint64 {
	if c.tool == nil {
		return 0
	}
	c.observeCreq(t, code)
	return c.tool.ClientRequest(t, code, args)
}

// observeCreq counts and traces one client request delivery.
func (c *Core) observeCreq(t *vm.Thread, code int32) {
	c.ctrCreqs.Inc()
	if h := c.Obs; h != nil && h.Tracer != nil {
		h.Tracer.Instant(c.M.BlocksExecuted, t.ID, "core", "creq",
			map[string]any{"code": code})
	}
}

// --- allocation registry ---

// RecordAlloc registers a heap block with its allocation stack.
func (c *Core) RecordAlloc(addr, size uint64, stack []uint64) *AllocBlock {
	c.allocSeq++
	b := &AllocBlock{Addr: addr, Size: size, Seq: c.allocSeq, Stack: stack}
	i := sort.Search(len(c.allocs), func(i int) bool { return c.allocs[i].Addr >= addr })
	c.allocs = append(c.allocs, nil)
	copy(c.allocs[i+1:], c.allocs[i:])
	c.allocs[i] = b
	return b
}

// RecordFree marks the block at addr freed (the registry keeps it so stale
// reports can still resolve the allocation site).
func (c *Core) RecordFree(addr uint64) *AllocBlock {
	if b := c.FindBlock(addr); b != nil && b.Addr == addr && !b.Freed {
		b.Freed = true
		return b
	}
	return nil
}

// FindBlock returns the most recent allocation whose [Addr, Addr+Size) span
// contains addr, or nil.
func (c *Core) FindBlock(addr uint64) *AllocBlock {
	i := sort.Search(len(c.allocs), func(i int) bool { return c.allocs[i].Addr > addr })
	var best *AllocBlock
	for j := i - 1; j >= 0; j-- {
		b := c.allocs[j]
		if addr >= b.Addr && addr < b.Addr+b.Size {
			if best == nil || b.Seq > best.Seq {
				best = b
			}
		}
		// Allocation spans never exceed the heap; stop scanning once
		// far below.
		if best != nil || (j < i-64) {
			break
		}
	}
	return best
}

// Allocations returns the registry (sorted by address).
func (c *Core) Allocations() []*AllocBlock { return c.allocs }

// AllocCount returns the number of registered allocations.
func (c *Core) AllocCount() int { return len(c.allocs) }

// translate returns the instrumented IR the IR engine runs for the block
// at addr, from the IR cache or translated fresh and copied out of the
// arena. The IR engine is the compiled engine's private oracle: it never
// consults the shared store.
func (c *Core) translate(addr uint64, tid int) (*vex.SuperBlock, error) {
	if sb, ok := c.cache[addr]; ok {
		c.CacheHits++
		return sb, nil
	}
	c.CacheMisses++
	sb, err := c.instrument(addr, tid)
	if err != nil {
		return nil, err
	}
	sb = detach(sb)
	c.cache[addr] = sb
	return sb, nil
}

// instrument runs the translation pipeline — decode, optimize, instrument
// — in the core's arena. The block it returns lives in the arena and is
// valid until the next translation.
func (c *Core) instrument(addr uint64, tid int) (*vex.SuperBlock, error) {
	traced := c.Obs != nil && c.Obs.Tracer != nil
	if traced {
		c.Obs.Tracer.Begin(c.M.BlocksExecuted, tid, "dbi", "translate",
			map[string]any{"addr": addr})
	}
	start := time.Now()
	a := &c.arena
	a.reset()
	raw := a.block()
	if err := translateInto(raw, c.M.Image, addr); err != nil {
		return nil, err
	}
	// The VEX optimization pass: tools instrument cleaned-up IR, exactly
	// like Valgrind plugins do.
	sb := a.block()
	a.vx.Optimize(sb, raw)
	if c.tool != nil {
		sb = c.tool.Instrument(c, sb)
		if c.Validate {
			if err := sb.Validate(); err != nil {
				return nil, err
			}
		}
	}
	c.TranslateNanos += uint64(time.Since(start))
	c.Translations++
	c.cacheStmts += uint64(len(sb.Stmts))
	c.histBlockStmts.Observe(float64(len(sb.Stmts)))
	if traced {
		c.Obs.Tracer.End(c.M.BlocksExecuted, tid, "dbi", "translate",
			map[string]any{"stmts": len(sb.Stmts)})
	}
	return sb, nil
}

// slot returns the compiled translation of the block at pc, or nil when
// pc is unaligned, outside the text or not compiled yet.
func (c *Core) slot(pc uint64) *vex.Compiled {
	off := pc - guest.TextBase
	if i := off / guest.InstrBytes; off%guest.InstrBytes == 0 && i < uint64(len(c.code)) {
		return c.code[i]
	}
	return nil
}

// compiled produces the micro-op translation for a block whose slot is
// empty, from the shared store or by running the pipeline — translate,
// optimize, instrument, lower — once in the arena, and fills the slot;
// only the compiled code is kept, and every later dispatch executes it. A
// PC the translator refuses (unaligned or outside the text) fails here.
func (c *Core) compiled(addr uint64, tid int) (*vex.Compiled, error) {
	c.CacheMisses++
	code := c.adopt(addr)
	if code == nil {
		sb, err := c.instrument(addr, tid)
		if err != nil {
			return nil, err
		}
		// Compile cost is timed on its own clock, independent of the
		// translation phase above.
		start := time.Now()
		if code, err = c.arena.vx.Compile(sb); err != nil {
			return nil, err
		}
		c.Compiles++
		c.CompileNanos += uint64(time.Since(start))
		c.publish(addr, code)
	}
	// Only an aligned PC inside the text translates, so addr has a slot.
	c.code[(addr-guest.TextBase)/guest.InstrBytes] = code
	return code, nil
}

// CachedBlocks returns the guest addresses of every compiled translation
// in address order — the benchmark harness replays them to measure hot
// block throughput on real translated code.
func (c *Core) CachedBlocks() []uint64 {
	var out []uint64
	for _, code := range c.code {
		if code != nil {
			out = append(out, code.GuestAddr)
		}
	}
	return out
}

// BlockCode returns the compiled translation of the block at addr, or nil
// if the block has not been compiled. Introspection only — callers must not
// mutate it.
func (c *Core) BlockCode(addr uint64) *vex.Compiled { return c.slot(addr) }

// CacheFootprint approximates the memory held by the translation cache —
// instrumented code is a real part of a DBI tool's footprint. It is a
// model, not a measurement of Go's heap: each statement of a cached
// translation's instrumented IR costs stmtBytes, whether or not the IR is
// kept, and each translation a fixed 64, so the footprint figures (Table
// II's memory column among them) stay comparable across changes to the
// Go representation of IR and code.
func (c *Core) CacheFootprint() uint64 {
	const stmtBytes = 96 // modelled cost of one cached statement
	return c.cacheStmts*stmtBytes + c.Translations*64
}

// SymbolAt is a convenience for tools: the symbol containing a guest address.
func (c *Core) SymbolAt(addr uint64) *guest.Symbol { return c.M.Image.SymbolFor(addr) }

// SymbolFilter builds a per-instruction instrumentation filter: instruction
// i is instrumented iff keep(name of its enclosing function) is true, and
// an instruction outside every symbol iff keep("") is. keep is called once
// per symbol. Where symbols overlap the later one in address order wins,
// as in Image.SymbolFor.
func SymbolFilter(im *guest.Image, keep func(sym string) bool) []bool {
	filter := make([]bool, len(im.Text))
	if keep("") {
		for i := range filter {
			filter[i] = true
		}
	}
	// The instructions in [lo, hi), index i at address TextBase+i*InstrBytes.
	index := func(a uint64) uint64 { return (a - guest.TextBase + guest.InstrBytes - 1) / guest.InstrBytes }
	for _, s := range im.Symbols {
		lo, hi := max(s.Addr, guest.TextBase), min(s.Addr+s.Size, im.TextEnd())
		if lo >= hi || index(lo) >= index(hi) {
			continue
		}
		k := keep(s.Name)
		for i := index(lo); i < index(hi); i++ {
			filter[i] = k
		}
	}
	return filter
}
