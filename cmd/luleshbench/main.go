// Command luleshbench regenerates the paper's Table II and Fig 4 on the
// LULESH proxy, plus the §IV naive-suppression motivation experiment. Every
// Table II and Fig 4 cell runs three times and shows the median run's time;
// the command fails if the three disagree on memory or reports.
//
// Usage:
//
//	luleshbench -table2               # Table II at -s 16 -tel 4 -tnl 4 -i 4
//	luleshbench -fig4                 # overhead sweep over -s
//	luleshbench -naive                # §IV motivation (suppressions off)
//	luleshbench -table2 -s 8 -i 2     # smaller configuration
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/gbuild"
	"repro/internal/lulesh"
)

func main() {
	var (
		table2 = flag.Bool("table2", false, "reproduce Table II")
		fig4   = flag.Bool("fig4", false, "reproduce Fig 4 (problem-size sweep)")
		naive  = flag.Bool("naive", false, "reproduce the §IV suppression motivation")
		explo  = flag.Bool("explore", false, "schedule sensitivity: racy LULESH report counts across seeds (the '149 to 273' row)")
		nseeds = flag.Int("seeds", 12, "explore: number of schedules")
		sizes  = flag.String("sizes", "4,8,12,16", "fig4: comma-separated mesh sizes")
		s      = flag.Int("s", 16, "mesh size")
		tel    = flag.Int("tel", 4, "tasks per element loop")
		tnl    = flag.Int("tnl", 4, "tasks per node loop")
		iters  = flag.Int("i", 4, "iterations")
		seed   = flag.Uint64("seed", 1, "scheduler seed")
	)
	flag.Parse()
	p := lulesh.Params{S: *s, TEL: *tel, TNL: *tnl, Iters: *iters}

	switch {
	case *table2:
		fmt.Printf("Table II — LULESH -s %d -tel %d -tnl %d -i %d\n", p.S, p.TEL, p.TNL, p.Iters)
		rows, err := lulesh.GenerateTableII(p, *seed)
		check(err)
		fmt.Print(lulesh.FormatTableII(rows))
		fmt.Println("\n(the paper's prototype deadlocked on 4-thread Taskgrind runs; this implementation does not)")

	case *fig4:
		var ss []int
		for _, part := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			check(err)
			ss = append(ss, v)
		}
		fmt.Printf("Fig 4 — overheads vs problem size (tel=%d tnl=%d i=%d)\n", p.TEL, p.TNL, p.Iters)
		pts, err := lulesh.GenerateFig4(ss, p, *seed)
		check(err)
		fmt.Print(lulesh.FormatFig4(pts))

	case *naive:
		np := lulesh.Params{S: 4, TEL: 2, TNL: 2, Iters: *iters}
		fmt.Printf("§IV motivation — correct LULESH -s %d -tel %d, suppressions on vs off\n", np.S, np.TEL)
		def, err := lulesh.Run(np, "taskgrind", 4, *seed)
		check(err)
		nv, err := lulesh.Run(np, "taskgrind-naive", 4, *seed)
		check(err)
		fmt.Printf("  with suppressions:    %6d reports (%v)\n", def.Reports, def.Wall.Round(time.Microsecond))
		fmt.Printf("  without suppressions: %6d reports (%v)\n", nv.Reports, nv.Wall.Round(time.Microsecond))

	case *explo:
		pp := p
		pp.Racy = true
		build := func() *gbuild.Builder {
			b, err := lulesh.Build(pp)
			check(err)
			return b
		}
		fmt.Printf("Schedule sensitivity — racy LULESH -s %d, %d schedules, 4 threads\n", pp.S, *nseeds)
		for _, tool := range []string{"archer", "taskgrind"} {
			out, err := explore.Run(build, tool, 4, *nseeds, 4)
			check(err)
			fmt.Println(" ", out.String())
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "luleshbench:", err)
		os.Exit(2)
	}
}
