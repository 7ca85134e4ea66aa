package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gbuild"
	"repro/internal/harness"
	"repro/internal/omp"
	"repro/internal/progs"
)

// fillThenFault is the wildstore demo with recorded work before the fault:
// the task fills a global array through a helper, then stores through a
// wild pointer in the same segment, so the run ends while the array's
// accesses are still pending in the thread's write-combining buffer.
func fillThenFault() *gbuild.Builder {
	b := omp.NewProgram()
	b.Global("arr", 64)

	f := b.Func("fill", "fill.c")
	f.Line(3)
	f.LoadSym(R1, "arr")
	f.Ldi(R2, 7)
	for i := int32(0); i < 8; i++ {
		f.St(8, R1, i*8, R2)
	}
	f.Ret()

	f = b.Func("bad_task", "fill.c")
	f.Line(8)
	f.Enter(0)
	f.Call("fill")
	f.Line(9)
	f.LdConst64(R1, 0xdead0000)
	f.Ldi(R2, 99)
	f.St(8, R1, 0, R2)
	f.Leave()

	f = b.Func("micro", "fill.c")
	f.Enter(0)
	fn := f
	omp.SingleNowait(f, func() {
		fn.Line(8)
		omp.EmitTask(fn, omp.TaskOpts{Fn: "bad_task"})
	})
	f.Leave()

	f = b.Func("main", "fill.c")
	f.Enter(0)
	f.Line(14)
	f.Ldi(R1, 0)
	omp.Parallel(f, "micro", R1, 2)
	f.Ldi(R0, 0)
	f.Hlt(R0)
	return b
}

// TestCrashFootprintPinned: a guest fault raised mid-segment ends the run
// without Fini, so Result.Footprint reads the shadow trees while the
// faulting thread's last accesses may still sit in its write-combining
// buffer. ShadowFootprint flushes first, so the footprint and the rendered
// crash report must equal the values measured before the buffer existed
// (fill-then-fault's footprint reads lower if the flush is skipped).
func TestCrashFootprintPinned(t *testing.T) {
	cases := []struct {
		name      string
		prog      *gbuild.Builder
		footprint uint64
		report    string
	}{
		{"wildstore", progs.Wildstore(), 35344, `==taskgrind== Invalid write of size 8 at 0xdead0000 (unmapped) by thread 0
==taskgrind==    at bad_task (wild.c:7)
==taskgrind==    by __kmp_invoke_task (+0x48)
==taskgrind==    by __kmp_task_barrier (+0x48)
==taskgrind==    by __kmp_run_implicit (+0x70)
==taskgrind==    by __kmpc_fork_call (+0x48)
==taskgrind==    by main (wild.c:4)
`},
		{"fill-then-fault", fillThenFault(), 50248, `==taskgrind== Invalid write of size 8 at 0xdead0000 (unmapped) by thread 0
==taskgrind==    at bad_task (fill.c:9)
==taskgrind==    by __kmp_invoke_task (+0x48)
==taskgrind==    by __kmp_task_barrier (+0x48)
==taskgrind==    by __kmp_run_implicit (+0x70)
==taskgrind==    by __kmpc_fork_call (+0x48)
==taskgrind==    by main (fill.c:14)
`},
	}
	for _, c := range cases {
		tg := core.New(core.DefaultOptions())
		res, inst, err := harness.BuildAndRun(c.prog, harness.Setup{Tool: tg, Seed: 1, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Crash == nil {
			t.Fatalf("%s did not crash (err=%v)", c.name, res.Err)
		}
		if res.Footprint != c.footprint {
			t.Errorf("%s: crash footprint = %d, want %d", c.name, res.Footprint, c.footprint)
		}
		if got := res.Crash.Render(inst.M.Image); got != c.report {
			t.Errorf("%s: crash report:\n%s\nwant:\n%s", c.name, got, c.report)
		}
	}
}
