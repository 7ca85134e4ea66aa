// Package lulesh implements the dependent task-based LULESH proxy
// application of the paper's evaluation (§V-B): a Lagrangian-hydrodynamics-
// shaped kernel pipeline over an s³ mesh with O(s³) time and memory, split
// into dependent tasks.
//
// Four kernels run per iteration over the same cell space, element-centered
// kernels chunked into `tel` tasks and node-centered kernels into `tnl`
// tasks (the paper's -tel / -tnl knobs). Task dependences connect kernels
// through array-section base addresses, including the cross-granularity
// overlaps between tel- and tnl-chunkings, plus a per-iteration timestep
// reduction task — so the execution builds a genuinely layered segment
// graph. The racy variant drops the advance kernel's dependence on the
// force array, the "removing a task dependence to introduce data races
// intentionally" experiment of Table II.
package lulesh

import (
	"fmt"

	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/omp"
	"repro/internal/ompt"
)

// Params mirrors the paper's command line: -s -tel -tnl -i, racy variant.
type Params struct {
	// S is the mesh edge; the problem has S^3 cells.
	S int
	// TEL is the number of tasks per element-centered loop.
	TEL int
	// TNL is the number of tasks per node-centered loop.
	TNL int
	// Iters is the iteration count (-i).
	Iters int
	// Racy drops the advance kernel's in-dependence on the force array.
	Racy bool
	// Progress emits per-iteration progress output (-p).
	Progress bool
}

// DefaultParams returns the paper's Table II configuration.
func DefaultParams() Params {
	return Params{S: 16, TEL: 4, TNL: 4, Iters: 4, Progress: false}
}

// Cells returns the cell count.
func (p Params) Cells() int { return p.S * p.S * p.S }

const (
	r0 = guest.R0
	r1 = guest.R1
	r2 = guest.R2
	r3 = guest.R3
	r4 = guest.R4
	r5 = guest.R5
	r9 = guest.R9
)

// chunks partitions [0, n) into k half-open ranges.
func chunks(n, k int) [][2]int {
	out := make([][2]int, 0, k)
	for c := 0; c < k; c++ {
		lo := n * c / k
		hi := n * (c + 1) / k
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// overlapping returns the ranges of parts that intersect [lo, hi).
func overlapping(parts [][2]int, lo, hi int) [][2]int {
	var out [][2]int
	for _, p := range parts {
		if p[0] < hi && p[1] > lo {
			out = append(out, p)
		}
	}
	return out
}

// depOn builds a dependence on array element ptrSym[idx] — the address a
// task-dependent code uses as the section token.
func depOn(kind uint64, ptrSym string, idx int) omp.Dep {
	return omp.Dep{Kind: kind, Emit: func(f *gbuild.Func, dst uint8) {
		f.LoadSym(dst, ptrSym)
		f.Ld(8, dst, dst, 0)
		f.Addi(dst, dst, int32(idx*8))
	}}
}

// kernelSpec describes one compute kernel.
type kernelSpec struct {
	name string
	line int
	// emit generates the per-cell body. On entry r1 holds the cell index
	// (as byte offset); the body may clobber r0..r5, r9, r10.
	emit func(f *gbuild.Func)
}

// emitKernelFn defines the task function for a kernel: payload = {lo, count}
// cell range; loops over cells invoking the body.
func emitKernelFn(b *gbuild.Builder, k kernelSpec) {
	f := b.Func(k.name, "lulesh.c")
	f.Line(k.line)
	f.Enter(32)
	// Locals: fp-8 = cursor (byte offset), fp-16 = end (byte offset).
	f.Ld(8, r1, r0, 0) // lo
	f.Ld(8, r2, r0, 8) // count
	f.Muli(r1, r1, 8)
	f.Muli(r2, r2, 8)
	f.Add(r2, r1, r2)
	f.StLocal(8, 8, r1)
	f.StLocal(8, 16, r2)
	loop := f.NewLabel()
	done := f.NewLabel()
	f.Bind(loop)
	f.LdLocal(8, r1, 8)
	f.LdLocal(8, r2, 16)
	f.Bge(r1, r2, done)
	k.emit(f) // body: r1 = byte offset of the cell
	f.LdLocal(8, r1, 8)
	f.Addi(r1, r1, 8)
	f.StLocal(8, 8, r1)
	f.Jmp(loop)
	f.Bind(done)
	f.Leave()
}

// loadArr emits dst = *(ptrSym) (the array base pointer).
func loadArr(f *gbuild.Func, dst uint8, ptrSym string) {
	f.LoadSym(dst, ptrSym)
	f.Ld(8, dst, dst, 0)
}

// Check reports whether Build accepts p: the mesh size, both task counts and
// the iteration count must be positive.
func (p Params) Check() error {
	if p.S <= 0 || p.TEL <= 0 || p.TNL <= 0 || p.Iters <= 0 {
		return fmt.Errorf("lulesh: bad params %+v", p)
	}
	return nil
}

// Build constructs the guest program.
func Build(p Params) (*gbuild.Builder, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	n := p.Cells()
	b := omp.NewProgram()
	for _, sym := range []string{"e_ptr", "p_ptr", "v_ptr", "f_ptr"} {
		b.Global(sym, 8)
	}
	b.Global("dt_v", 8)
	b.GlobalString("msg_iter", "iter\n")

	// K1 nodal force: f[j] = (p[j] + v[j]) * 0.5.
	emitKernelFn(b, kernelSpec{name: "k1_force", line: 40, emit: func(f *gbuild.Func) {
		loadArr(f, r3, "p_ptr")
		f.Add(r3, r3, r1)
		f.Ld(8, r4, r3, 0)
		loadArr(f, r3, "v_ptr")
		f.Add(r3, r3, r1)
		f.Ld(8, r5, r3, 0)
		f.Fadd(r4, r4, r5)
		f.LdFloat(r5, 0.5)
		f.Fmul(r4, r4, r5)
		loadArr(f, r3, "f_ptr")
		f.Add(r3, r3, r1)
		f.St(8, r3, 0, r4)
	}})
	// K2 advance: e[j] += f[j] * dt.
	emitKernelFn(b, kernelSpec{name: "k2_advance", line: 55, emit: func(f *gbuild.Func) {
		loadArr(f, r3, "f_ptr")
		f.Add(r3, r3, r1)
		f.Ld(8, r4, r3, 0)
		f.LoadSym(r3, "dt_v")
		f.Ld(8, r5, r3, 0)
		f.Fmul(r4, r4, r5)
		loadArr(f, r3, "e_ptr")
		f.Add(r3, r3, r1)
		f.Ld(8, r5, r3, 0)
		f.Fadd(r5, r5, r4)
		f.St(8, r3, 0, r5)
	}})
	// K3 EOS: p[i] = e[i]*0.3 + 0.1.
	emitKernelFn(b, kernelSpec{name: "k3_eos", line: 70, emit: func(f *gbuild.Func) {
		loadArr(f, r3, "e_ptr")
		f.Add(r3, r3, r1)
		f.Ld(8, r4, r3, 0)
		f.LdFloat(r5, 0.3)
		f.Fmul(r4, r4, r5)
		f.LdFloat(r5, 0.1)
		f.Fadd(r4, r4, r5)
		loadArr(f, r3, "p_ptr")
		f.Add(r3, r3, r1)
		f.St(8, r3, 0, r4)
	}})
	// K4 volume update: v[i] = v[i]*0.99 + e[i]*0.01.
	emitKernelFn(b, kernelSpec{name: "k4_volume", line: 85, emit: func(f *gbuild.Func) {
		loadArr(f, r3, "v_ptr")
		f.Add(r3, r3, r1)
		f.Ld(8, r4, r3, 0)
		f.LdFloat(r5, 0.99)
		f.Fmul(r4, r4, r5)
		loadArr(f, r3, "e_ptr")
		f.Add(r3, r3, r1)
		f.Ld(8, r5, r3, 0)
		f.LdFloat(r9, 0.01)
		f.Fmul(r5, r5, r9)
		f.Fadd(r4, r4, r5)
		loadArr(f, r3, "v_ptr")
		f.Add(r3, r3, r1)
		f.St(8, r3, 0, r4)
	}})
	// Timestep reduction: dt = 1e-3 / (1 + |e[0]|*0) — reads a strided
	// sample of e and rewrites dt (the CalcTimeConstraints analog).
	f := b.Func("k5_dt", "lulesh.c")
	f.Line(100)
	f.Enter(32)
	f.Ld(8, r1, r0, 0) // count (cells)
	f.Muli(r1, r1, 8)
	f.StLocal(8, 16, r1)
	f.Ldi(r1, 0)
	f.StLocal(8, 8, r1)
	f.LdFloat(r4, 0)
	f.StLocal(8, 24, r4)
	dloop := f.NewLabel()
	ddone := f.NewLabel()
	f.Bind(dloop)
	f.LdLocal(8, r1, 8)
	f.LdLocal(8, r2, 16)
	f.Bge(r1, r2, ddone)
	loadArr(f, r3, "e_ptr")
	f.Add(r3, r3, r1)
	f.Ld(8, r4, r3, 0)
	f.LdLocal(8, r5, 24)
	f.Fadd(r5, r5, r4)
	f.StLocal(8, 24, r5)
	f.Addi(r1, r1, 64) // stride 8 cells
	f.StLocal(8, 8, r1)
	f.Jmp(dloop)
	f.Bind(ddone)
	// dt = 1e-3 * 0.999 (sum only guards against dead-code elimination —
	// of which this back end has none, but the reads are the point).
	f.LoadSym(r3, "dt_v")
	f.Ld(8, r4, r3, 0)
	f.LdFloat(r5, 0.999)
	f.Fmul(r4, r4, r5)
	f.St(8, r3, 0, r4)
	f.Leave()

	emitMicro(b, p, n)
	emitLuleshMain(b, p, n)
	return b, nil
}

// argsGlobal places a static {lo, count} argument block for one task and
// returns its symbol. Real task-dependent codes pass chunk descriptors as
// preallocated structures, not per-spawn captures — which also keeps the
// runtime's recycling pool out of the user access stream.
func argsGlobal(b *gbuild.Builder, name string, lo, count int) string {
	var buf [16]byte
	putU64(buf[0:], uint64(lo))
	putU64(buf[8:], uint64(count))
	b.GlobalInit(name, buf[:])
	return name
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// spawnKernelTask emits a task whose body receives the static args block.
func spawnKernelTask(f *gbuild.Func, fn, argsSym string, deps []omp.Dep) {
	omp.EmitTask(f, omp.TaskOpts{Fn: fn + "$" + argsSym, Deps: deps})
}

// emitArgWrapper defines the per-chunk entry point: it loads the static args
// block address and tail-calls the kernel body.
func emitArgWrapper(b *gbuild.Builder, fn, argsSym string) {
	f := b.Func(fn+"$"+argsSym, "lulesh.c")
	f.Enter(0)
	f.LoadSym(r0, argsSym)
	f.Call(fn)
	f.Leave()
}

// emitMicro generates the task pipeline.
func emitMicro(b *gbuild.Builder, p Params, n int) {
	elem := chunks(n, p.TEL)
	node := chunks(n, p.TNL)

	// Static argument blocks and wrappers, shared across iterations.
	for ki, k := range []string{"k1_force", "k2_advance", "k3_eos", "k4_volume"} {
		cs := node
		if ki >= 2 {
			cs = elem
		}
		for ci, c := range cs {
			sym := fmt.Sprintf("args_k%d_c%d", ki+1, ci)
			argsGlobal(b, sym, c[0], c[1]-c[0])
			emitArgWrapper(b, k, sym)
		}
	}
	argsGlobal(b, "args_k5", n, 0)
	emitArgWrapper(b, "k5_dt", "args_k5")

	f := b.Func("micro", "lulesh.c")
	f.Line(110)
	f.Enter(16)
	omp.AssumeDeferrable(f, true)
	fn := f
	omp.SingleNowait(f, func() {
		for iter := 0; iter < p.Iters; iter++ {
			// K1 (node loop): in p,v over overlapping element chunks;
			// out f on the node chunk.
			for ci, nc := range node {
				deps := []omp.Dep{depOn(ompt.DepOut, "f_ptr", nc[0])}
				for _, ec := range overlapping(elem, nc[0], nc[1]) {
					deps = append(deps,
						depOn(ompt.DepIn, "p_ptr", ec[0]),
						depOn(ompt.DepIn, "v_ptr", ec[0]))
				}
				spawnKernelTask(fn, "k1_force", fmt.Sprintf("args_k1_c%d", ci), deps)
			}
			// K2 (node loop): in f (DROPPED in the racy variant!),
			// inout e.
			for ci, nc := range node {
				deps := []omp.Dep{depOn(ompt.DepInout, "e_ptr", nc[0])}
				if !p.Racy {
					deps = append(deps, depOn(ompt.DepIn, "f_ptr", nc[0]))
				}
				spawnKernelTask(fn, "k2_advance", fmt.Sprintf("args_k2_c%d", ci), deps)
			}
			// K3 (element loop): in e over overlapping node chunks;
			// out p.
			for ci, ec := range elem {
				deps := []omp.Dep{depOn(ompt.DepOut, "p_ptr", ec[0])}
				for _, nc := range overlapping(node, ec[0], ec[1]) {
					deps = append(deps, depOn(ompt.DepIn, "e_ptr", nc[0]))
				}
				spawnKernelTask(fn, "k3_eos", fmt.Sprintf("args_k3_c%d", ci), deps)
			}
			// K4 (element loop): in e over node chunks; inout v.
			for ci, ec := range elem {
				deps := []omp.Dep{depOn(ompt.DepInout, "v_ptr", ec[0])}
				for _, nc := range overlapping(node, ec[0], ec[1]) {
					deps = append(deps, depOn(ompt.DepIn, "e_ptr", nc[0]))
				}
				spawnKernelTask(fn, "k4_volume", fmt.Sprintf("args_k4_c%d", ci), deps)
			}
			// Timestep reduction: in every e node chunk, plus dt itself.
			deps := []omp.Dep{omp.DepSym(ompt.DepInout, "dt_v")}
			for _, nc := range node {
				deps = append(deps, depOn(ompt.DepIn, "e_ptr", nc[0]))
			}
			spawnKernelTask(fn, "k5_dt", "args_k5", deps)
			if p.Progress {
				fn.LoadSym(r0, "msg_iter")
				fn.Hcall("print_str")
			}
		}
		omp.Taskwait(fn)
	})
	f.Leave()
}

// emitLuleshMain allocates and initializes the mesh, runs the region, and
// returns a checksum of the energy field (scaled to an integer) so the
// direct and instrumented engines can be cross-checked.
func emitLuleshMain(b *gbuild.Builder, p Params, n int) {
	f := b.Func("main", "lulesh.c")
	f.Line(10)
	f.Enter(16)
	// Allocate the four fields.
	for _, sym := range []string{"e_ptr", "p_ptr", "v_ptr", "f_ptr"} {
		f.LdConst64(r0, uint64(n*8))
		f.Hcall("malloc")
		f.LoadSym(r1, sym)
		f.St(8, r1, 0, r0)
	}
	// dt = 1e-3.
	f.LoadSym(r1, "dt_v")
	f.LdFloat(r2, 1e-3)
	f.St(8, r1, 0, r2)
	// Init: e = 1.0, p = 1.0, v = 1.0, f = 0.0.
	f.Ldi(r3, 0)
	f.StLocal(8, 8, r3)
	initLoop := f.NewLabel()
	initDone := f.NewLabel()
	f.Bind(initLoop)
	f.LdLocal(8, r3, 8)
	f.LdConst64(r2, uint64(n*8))
	f.Bge(r3, r2, initDone)
	for i, sym := range []string{"e_ptr", "p_ptr", "v_ptr", "f_ptr"} {
		loadArr(f, r1, sym)
		f.Add(r1, r1, r3)
		if i < 3 {
			f.LdFloat(r2, 1.0)
		} else {
			f.LdFloat(r2, 0.0)
		}
		f.St(8, r1, 0, r2)
	}
	f.LdLocal(8, r3, 8)
	f.Addi(r3, r3, 8)
	f.StLocal(8, 8, r3)
	f.Jmp(initLoop)
	f.Bind(initDone)

	f.Line(20)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 0)

	// Checksum: floor(sum(e) * 16) mod 2^31.
	f.Line(30)
	f.Ldi(r3, 0)
	f.StLocal(8, 8, r3)
	f.LdFloat(r4, 0)
	f.StLocal(8, 16, r4)
	sumLoop := f.NewLabel()
	sumDone := f.NewLabel()
	f.Bind(sumLoop)
	f.LdLocal(8, r3, 8)
	f.LdConst64(r2, uint64(n*8))
	f.Bge(r3, r2, sumDone)
	loadArr(f, r1, "e_ptr")
	f.Add(r1, r1, r3)
	f.Ld(8, r4, r1, 0)
	f.LdLocal(8, r5, 16)
	f.Fadd(r5, r5, r4)
	f.StLocal(8, 16, r5)
	f.Addi(r3, r3, 8)
	f.StLocal(8, 8, r3)
	f.Jmp(sumLoop)
	f.Bind(sumDone)
	f.LdLocal(8, r4, 16)
	f.LdFloat(r5, 16.0)
	f.Fmul(r4, r4, r5)
	f.Ftoi(r0, r4)
	f.LdConst64(r1, 0x7fffffff)
	f.ALU(guest.OpAnd, r0, r0, r1)
	f.Hlt(r0)
}
