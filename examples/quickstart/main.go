// Quickstart: build the paper's erroneous OpenMP program (Listing 4), run
// it under Taskgrind, and print the determinacy-race report (Listing 6).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/harness"
	"repro/internal/omp"
)

func main() {
	// --- 1. Write the program (the DSL plays the role of the compiler).
	//
	//	3:  int *x = malloc(2 * sizeof(int));
	//	8:  #pragma omp task  { x[0] = 42; }
	//	11: #pragma omp task  { x[0] = 43; }
	b := omp.NewProgram()
	b.Global("xptr", 8)
	const r0, r1, r2 = guest.R0, guest.R1, guest.R2

	taskBody := func(name string, line int, val int32) {
		f := b.Func(name, "task.c")
		f.Line(line)
		f.LoadSym(r1, "xptr")
		f.Ld(8, r1, r1, 0)
		f.Ldi(r2, val)
		f.St(4, r1, 0, r2)
		f.Ret()
	}
	taskBody("task_a", 8, 42)
	taskBody("task_b", 11, 43)

	f := b.Func("micro", "task.c")
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
	omp.Parallel(f, "micro", r1, 4)
	f.Ldi(r0, 0)
	f.Hlt(r0)

	// --- 2. Run it under Taskgrind (valgrind --tool=taskgrind ./task).
	tg := core.New(core.DefaultOptions())
	res, _, err := harness.BuildAndRun(b, harness.Setup{Tool: tg, Seed: 1, Threads: 4})
	if err != nil || res.Err != nil {
		fmt.Fprintln(os.Stderr, err, res.Err)
		os.Exit(2)
	}

	// --- 3. Read the report (paper Listing 6).
	fmt.Print(tg.Reports.String())
	fmt.Printf("(%d segments, %d accesses recorded, %d candidate segment pairs checked)\n",
		tg.Stats.SegmentsCreated, tg.Stats.AccessesRecorded, tg.Stats.PairsChecked)
}
