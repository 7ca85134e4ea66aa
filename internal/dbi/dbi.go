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

	cache map[uint64]*vex.SuperBlock
	// ccache is the compiled-translation cache (micro-op code plus
	// chaining metadata), used by the compiled engine.
	ccache map[uint64]*centry
	// cdisp is the fast dispatch table: a dense array indexed by
	// guest-PC/instruction-size mirroring ccache, the analog of Valgrind's
	// direct-mapped VG_(tt_fast). The compiled engine probes it before the
	// map; guest text is small and dense, so virtually every warm dispatch
	// is an indexed load instead of a map lookup. Entries are verified
	// against the block's GuestAddr (unaligned PCs alias slots).
	cdisp []*centry
	// cacheGen is the cache generation; ClearCache bumps it, invalidating
	// every chained successor pointer and dispatch prediction at once.
	cacheGen uint64
	// engineFixed is set when a CompileTimeTool installed the direct
	// engine with access hooks; SelectEngine then refuses to override.
	engineFixed bool

	// Shared, when set, is the content-addressed translation store tier
	// consulted between the local caches and fresh translation: local miss
	// -> adopt a published unit (copy-on-attach, dirty helpers re-bound to
	// this core) -> translate fresh and publish. The store must be keyed
	// for exactly this core's (image, tool, engine) universe —
	// the harness derives the key; see internal/tstore.
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
	// superblock cache under the IR engine, the compiled cache or a chain
	// hit under the compiled engine). CacheMisses counts dispatches no
	// local cache served — each is resolved either from the shared store
	// (SharedHits) or by a fresh translation (Translations), so
	// CacheMisses == SharedHits + Translations.
	CacheHits   uint64
	CacheMisses uint64
	// SharedHits counts blocks adopted from the shared translation store.
	SharedHits uint64
	// Compiles counts superblocks lowered to micro-ops.
	Compiles uint64
	// ChainHits counts dispatches that bypassed translation-cache lookup
	// entirely through a chained successor pointer; ChainMisses counts
	// dispatches that had to look the block up (via the fast dispatch
	// table or the map: first visits and unchainable edges).
	ChainHits, ChainMisses uint64
	// cacheStmts counts IR statements held in the translation cache.
	cacheStmts uint64

	// arena is the translation scratch memory the pipeline stages write
	// into; translateFresh copies each finished block out of it.
	arena arena
	// batchBuf is the reusable access-batch buffer shared by every
	// flushSite (the scheduler is single-threaded by construction).
	batchBuf []Access
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
	// AccessHooks returns the load/store checks and the per-instruction
	// instrumentation filter for the image.
	AccessHooks(im *guest.Image) (load, store vm.AccessHook, filter []bool)
}

// New wraps a machine with a tool and installs the translating engine and
// hooks. Pass nil for tool to run the direct engine (no instrumentation)
// while keeping Core facilities available. Threads that already exist (the
// main thread) get their ThreadStart callback immediately.
func New(m *vm.Machine, tool Tool) *Core {
	c := &Core{
		M: m, tool: tool,
		cache:  make(map[uint64]*vex.SuperBlock),
		ccache: make(map[uint64]*centry),
	}
	if tool != nil {
		installed := false
		if ct, ok := tool.(CompileTimeTool); ok {
			if load, store, filter := ct.AccessHooks(m.Image); load != nil || store != nil {
				m.Eng = &vm.DirectEngine{LoadHook: load, StoreHook: store, Filter: filter}
				installed = true
				c.engineFixed = true
			}
		}
		if !installed {
			m.Eng = &compiledEngine{c: c}
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
	// EngineCompiled executes pre-lowered micro-ops with block chaining
	// (the default for instrumenting tools).
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
		c.M.Eng = &compiledEngine{c: c}
	case EngineIR:
		c.M.Eng = &irEngine{c: c}
	default:
		return fmt.Errorf("dbi: unknown engine %q (have %q, %q)", name, EngineCompiled, EngineIR)
	}
	return nil
}

// EngineFixed reports whether the tool fixed the engine itself
// (compile-time instrumentation on the direct interpreter). Such cores
// never translate, so a shared translation store does not apply.
func (c *Core) EngineFixed() bool { return c.engineFixed }

// ClearCache drops every translation — IR and compiled — and bumps the
// cache generation, which atomically invalidates all chained successor
// pointers and per-thread dispatch predictions. The next dispatch of every
// block retranslates (and re-instruments) it.
func (c *Core) ClearCache() {
	c.cache = make(map[uint64]*vex.SuperBlock)
	c.ccache = make(map[uint64]*centry)
	for i := range c.cdisp {
		c.cdisp[i] = nil
	}
	c.cacheGen++
	c.cacheStmts = 0
	if h := c.Obs; h != nil && h.Tracer != nil {
		h.Tracer.Instant(c.M.BlocksExecuted, -1, "dbi", "cache-clear",
			map[string]any{"gen": c.cacheGen})
	}
}

// CacheGen returns the current cache generation (bumped by ClearCache).
func (c *Core) CacheGen() uint64 { return c.cacheGen }

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

// CacheStmts returns the IR statement count held in the translation cache.
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

// translate produces the instrumented IR for the block at addr, consulting
// the translation cache, then the shared store, then translating fresh. tid
// attributes translation trace events to the thread whose dispatch
// triggered them.
func (c *Core) translate(addr uint64, tid int) (*vex.SuperBlock, error) {
	if sb, ok := c.cache[addr]; ok {
		c.CacheHits++
		return sb, nil
	}
	c.CacheMisses++
	if u := c.sharedGet(addr); u != nil {
		if sb, err := c.adoptSB(u); err == nil {
			return sb, nil
		}
	}
	return c.translateFresh(addr, tid)
}

// translateFresh runs the full translation pipeline — decode, optimize,
// instrument — in the core's arena, caches a copy of the result and
// publishes it to the shared store.
func (c *Core) translateFresh(addr uint64, tid int) (*vex.SuperBlock, error) {
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
	}
	sb = detach(sb)
	if c.tool != nil && c.Validate {
		if err := sb.Validate(); err != nil {
			return nil, err
		}
	}
	c.TranslateNanos += uint64(time.Since(start))
	c.cache[addr] = sb
	c.Translations++
	c.cacheStmts += uint64(len(sb.Stmts))
	c.histBlockStmts.Observe(float64(len(sb.Stmts)))
	if traced {
		c.Obs.Tracer.End(c.M.BlocksExecuted, tid, "dbi", "translate",
			map[string]any{"stmts": len(sb.Stmts)})
	}
	c.sharedPut(addr, sb)
	return sb, nil
}

// compiled produces the micro-op translation for the block at addr,
// consulting the compiled cache, then the shared store, then running the
// full pipeline — translate, optimize, instrument, lower — once; every
// later dispatch executes the pre-resolved form.
func (c *Core) compiled(addr uint64, tid int) (*centry, error) {
	if ent, ok := c.ccache[addr]; ok {
		c.CacheHits++
		return ent, nil
	}
	c.CacheMisses++
	var unit *tstore.Unit
	sb, haveSB := c.cache[addr]
	if !haveSB {
		if unit = c.sharedGet(addr); unit != nil {
			if s, err := c.adoptSB(unit); err == nil {
				sb, haveSB = s, true
			} else {
				unit = nil // unadoptable: fall back to the local pipeline
			}
		}
	}
	if !haveSB {
		var err error
		if sb, err = c.translateFresh(addr, tid); err != nil {
			return nil, err
		}
	}
	var code *vex.Compiled
	if unit != nil && unit.Code != nil {
		if adopted, err := c.adoptCode(unit); err == nil {
			code = adopted
		}
	}
	if code == nil {
		// Compile cost is timed on its own clock, independent of the
		// translation phase above.
		start := time.Now()
		var err error
		code, err = c.arena.vx.Compile(sb)
		if err != nil {
			return nil, err
		}
		c.Compiles++
		c.CompileNanos += uint64(time.Since(start))
		c.sharedPutCode(addr, code)
	}
	ent := &centry{code: code, gen: c.cacheGen, chains: make([]*centry, code.NChains)}
	c.ccache[addr] = ent
	if idx := addr / guest.InstrBytes; addr%guest.InstrBytes == 0 {
		if idx >= uint64(len(c.cdisp)) {
			nd := make([]*centry, idx+idx/2+64)
			copy(nd, c.cdisp)
			c.cdisp = nd
		}
		c.cdisp[idx] = ent
	}
	return ent, nil
}

// CachedBlocks returns the guest addresses of every cached translation in
// sorted order — the benchmark harness replays them to measure hot block
// throughput on real translated code.
func (c *Core) CachedBlocks() []uint64 {
	out := make([]uint64, 0, len(c.cache))
	for a := range c.cache {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BlockIR returns the cached instrumented IR for the block at addr, or nil
// if the block has not been translated. Introspection only — callers must
// not mutate the block.
func (c *Core) BlockIR(addr uint64) *vex.SuperBlock { return c.cache[addr] }

// CacheFootprint approximates the memory held by the translation cache —
// instrumented IR is a real part of a DBI tool's footprint. It is a model,
// not a measurement of Go's heap: each cached statement costs stmtBytes and
// each translation a fixed 64, whatever the layout of vex.Stmt, so the
// footprint figures (Table II's memory column among them) stay comparable
// across changes to the IR's Go representation.
func (c *Core) CacheFootprint() uint64 {
	const stmtBytes = 96 // modelled cost of one cached statement
	return c.cacheStmts*stmtBytes + c.Translations*64
}

// SymbolAt is a convenience for tools: the symbol containing a guest address.
func (c *Core) SymbolAt(addr uint64) *guest.Symbol { return c.M.Image.SymbolFor(addr) }

// SymbolFilter builds a per-instruction instrumentation filter: instruction
// i is instrumented iff keep(name of its enclosing function) is true.
func SymbolFilter(im *guest.Image, keep func(sym string) bool) []bool {
	n := len(im.Text)
	filter := make([]bool, n)
	for i := range filter {
		name := ""
		if sym := im.SymbolFor(guest.TextBase + uint64(i)*guest.InstrBytes); sym != nil {
			name = sym.Name
		}
		filter[i] = keep(name)
	}
	return filter
}
