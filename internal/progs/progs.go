// Package progs names the built-in guest programs: every DRB/TMB
// microbenchmark, the LULESH proxy, the paper's Listing 4 example and the
// fault-model demo. It is the one program registry shared by the CLI
// (`taskgrind -prog`), the analysis daemon (`taskgrindd` job specs) and the
// replay-token decoder — a program name appearing in a `tg1:` token resolves
// here no matter which binary replays it.
package progs

import (
	"fmt"

	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/guest"
	"repro/internal/lulesh"
	"repro/internal/omp"
)

// Check reports whether Build accepts name and lp without building the
// program: name must be a built-in program and, for "lulesh", lp must pass
// lulesh's parameter check. Build fails exactly when Check does, with its
// error.
func Check(name string, lp lulesh.Params) error {
	switch name {
	case "lulesh":
		return lp.Check()
	case "task.c", "task.c-critical", "wildstore":
		return nil
	}
	if _, ok := drb.ByName(name); ok {
		return nil
	}
	return fmt.Errorf("unknown program %q (use -list)", name)
}

// Build resolves a program name to a fresh builder (builders are
// single-link, so every call constructs anew). lp is consulted for
// "lulesh" only.
func Build(name string, lp lulesh.Params) (*gbuild.Builder, error) {
	if err := Check(name, lp); err != nil {
		return nil, err
	}
	switch name {
	case "lulesh":
		return lulesh.Build(lp)
	case "task.c":
		return Listing4(), nil
	case "task.c-critical":
		return Listing4Critical(), nil
	case "wildstore":
		return Wildstore(), nil
	}
	b, _ := drb.ByName(name)
	return b.Build(), nil
}

// Names enumerates the built-in program names, specials first, in the
// order `taskgrind -list` prints them.
func Names() []string {
	names := []string{"task.c", "task.c-critical", "lulesh", "wildstore"}
	for _, b := range drb.All() {
		names = append(names, b.Name)
	}
	for _, b := range drb.LockSuite() {
		names = append(names, b.Name)
	}
	return names
}

// Listing4 is the paper's erroneous example program (Listing 4).
func Listing4() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("xptr", 8)
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2

	f := b.Func("task_a", "task.c")
	f.Line(8)
	f.LoadSym(r1, "xptr")
	f.Ld(8, r1, r1, 0)
	f.Ldi(r2, 42)
	f.St(4, r1, 0, r2)
	f.Ret()

	f = b.Func("task_b", "task.c")
	f.Line(11)
	f.LoadSym(r1, "xptr")
	f.Ld(8, r1, r1, 0)
	f.Ldi(r2, 43)
	f.St(4, r1, 0, r2)
	f.Ret()

	f = b.Func("micro", "task.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		fn.Line(8)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_a"})
		fn.Line(11)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_b"})
	})
	f.Leave()

	f = b.Func("main", "task.c")
	f.Enter(0)
	f.Line(3)
	f.Ldi(r0, 8)
	f.Hcall("malloc")
	f.LoadSym(r1, "xptr")
	f.St(8, r1, 0, r0)
	f.Line(4)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 0)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}

// Listing4Critical is Listing 4 with both task bodies wrapped in the same
// named critical section: the writes to *xptr are mutually exclusive, so no
// lockset tool reports — but which value x ends with still depends on the
// schedule, so Taskgrind (deliberately, §VI) keeps reporting the pair.
func Listing4Critical() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("xptr", 8)
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2

	task := func(name string, line int, val int32) {
		f := b.Func(name, "taskcrit.c")
		f.Line(line)
		f.Enter(0)
		omp.Critical(f, 1, func() {
			f.LoadSym(r1, "xptr")
			f.Ld(8, r1, r1, 0)
			f.Ldi(r2, val)
			f.St(4, r1, 0, r2)
		})
		f.Leave()
	}
	task("task_a", 8, 42)
	task("task_b", 12, 43)

	f := b.Func("micro", "taskcrit.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		fn.Line(8)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_a"})
		fn.Line(12)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "task_b"})
	})
	f.Leave()

	f = b.Func("main", "taskcrit.c")
	f.Enter(0)
	f.Line(3)
	f.Ldi(r0, 8)
	f.Hcall("malloc")
	f.LoadSym(r1, "xptr")
	f.St(8, r1, 0, r0)
	f.Line(4)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 0)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}

// Wildstore is the fault-model demo: a task dereferences an uninitialized
// "pointer" and stores into unmapped memory, which the strict memory model
// turns into a symbolized CrashReport instead of silent page allocation.
func Wildstore() *gbuild.Builder {
	b := omp.NewProgram()
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2

	f := b.Func("bad_task", "wild.c")
	f.Line(7)
	f.LdConst64(r1, 0xdead0000)
	f.Ldi(r2, 99)
	f.St(8, r1, 0, r2) // wild store: 0xdead0000 is in no mapped region
	f.Ret()

	f = b.Func("micro", "wild.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		fn.Line(7)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "bad_task"})
	})
	f.Leave()

	f = b.Func("main", "wild.c")
	f.Enter(0)
	f.Line(4)
	f.Ldi(r1, 0)
	omp.Parallel(f, "micro", r1, 2)
	f.Ldi(r0, 0)
	f.Hlt(r0)
	return b
}
