package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/drb"
	"repro/internal/gbuild"
	"repro/internal/lulesh"
)

// table1Tools maps Table I's columns to tool registry names.
var table1Tools = [drb.NumTools]string{"tasksan", "archer", "romp", "taskgrind"}

// cell is one (benchmark, thread count, tool) cell of Table I.
type cell struct {
	b       drb.Benchmark
	threads int
	tool    drb.Tool
	row     int
}

// table1 regenerates the paper's Table I, as `drbench` does: 29 DRB rows
// at 4 threads and the 7 TMB rows at 1 and at 4 threads, each cell a fresh
// storeless instance per scheduler seed until the first detection. The
// workload seed shuffles the cell order only.
type table1 struct {
	cells []cell
	rows  []drb.Row // names, ground truth and thread counts; no verdicts
	want  string    // pinned rendering of the verdict matrix
	got   string
}

func newTable1(expected string) (*table1, error) {
	want, err := os.ReadFile(filepath.Join(expected, "table1.txt"))
	if err != nil {
		return nil, err
	}
	t := &table1{want: string(want)}
	add := func(b drb.Benchmark, threads int) {
		row := len(t.rows)
		t.rows = append(t.rows, drb.Row{Name: b.Name, Race: b.Race, Threads: threads})
		for tool := drb.Tool(0); tool < drb.NumTools; tool++ {
			t.cells = append(t.cells, cell{b: b, threads: threads, tool: tool, row: row})
		}
	}
	all := drb.All()
	for _, b := range all {
		if !b.TMB {
			add(b, 4)
		}
	}
	for _, threads := range []int{1, 4} {
		for _, b := range all {
			if b.TMB {
				add(b, threads)
			}
		}
	}
	return t, nil
}

func (t *table1) run(r *runner, rng *rand.Rand) error {
	rows := slices.Clone(t.rows)
	for _, i := range rng.Perm(len(t.cells)) {
		c := t.cells[i]
		v, err := verdict(r, c)
		if err != nil {
			return err
		}
		rows[c.row].Verdicts[c.tool] = v
	}
	sp := r.tr.begin("report.render", r.id, r.root)
	t.got = drb.FormatTableI(rows)
	r.tr.end(sp)
	r.st.reportBytes += uint64(len(t.got))
	return nil
}

// verdict classifies one cell the way drb.VerdictOf does.
func verdict(r *runner, c cell) (drb.Verdict, error) {
	switch {
	case c.tool == drb.ToolTaskSanitizer && c.b.TsanNCS:
		return drb.NCS, nil
	case c.tool == drb.ToolROMP && c.b.RompSegv:
		return drb.SEGV, nil
	}
	build := func() (*gbuild.Builder, error) { return c.b.Build(), nil }
	for _, seed := range drb.DefaultSeeds {
		res, err := r.exec(job{build: build, tool: table1Tools[c.tool], threads: c.threads, seed: seed})
		if err != nil {
			return 0, fmt.Errorf("%s at %d threads: %w", c.b.Name, c.threads, err)
		}
		if res.reports > 0 {
			return drb.Classify(c.b.Race, true), nil
		}
	}
	return drb.Classify(c.b.Race, false), nil
}

func (t *table1) check(*runner) error {
	if t.got == t.want {
		return nil
	}
	got, want := strings.Split(t.got, "\n"), strings.Split(t.want, "\n")
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("table1: verdict matrix line %d is %q, pinned %q", i+1, got[i], want[i])
		}
	}
	return fmt.Errorf("table1: verdict matrix has %d lines, pinned %d", len(got), len(want))
}

// luleshWant is a pinned LULESH outcome (bench/expected/lulesh-*.json).
type luleshWant struct {
	// Checksum is the guest's exit code: a checksum of the energy field.
	Checksum uint64 `json:"checksum"`
	Reports  int    `json:"reports"`
	// Instrs is the retired guest instruction count, by scheduler seed.
	Instrs map[string]uint64 `json:"instrs_by_seed"`
	// ReportSHA256 is the hash of the rendered report text, when pinned.
	ReportSHA256 string `json:"report_sha256,omitempty"`
}

func loadLulesh(expected, name string) (luleshWant, error) {
	var w luleshWant
	data, err := os.ReadFile(filepath.Join(expected, name+".json"))
	if err != nil {
		return w, err
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return w, fmt.Errorf("%s.json: %w", name, err)
	}
	return w, nil
}

// verify compares one LULESH execution with the pinned outcome.
func (w luleshWant) verify(what string, seed uint64, res result) error {
	want, ok := w.Instrs[strconv.FormatUint(seed, 10)]
	switch {
	case res.exit != w.Checksum:
		return fmt.Errorf("%s: checksum %d, pinned %d", what, res.exit, w.Checksum)
	case res.reports != w.Reports:
		return fmt.Errorf("%s: %d reports, pinned %d", what, res.reports, w.Reports)
	case !ok || res.instrs != want:
		return fmt.Errorf("%s seed %d: %d guest instructions, pinned %d", what, seed, res.instrs, want)
	case w.ReportSHA256 != "" && sha(res.text) != w.ReportSHA256:
		return fmt.Errorf("%s: report text hash %s, pinned %s", what, sha(res.text), w.ReportSHA256)
	}
	return nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// luleshSeeds are the scheduler seeds LULESH runs draw from; their
// instruction counts are pinned.
var luleshSeeds = drb.DefaultSeeds

// luleshRun is one LULESH execution under Taskgrind per run.
//
// lulesh-s24 is Table II / Fig 4 at scale: the correct program at -s 24 -i 2
// -tel 4 -tnl 4 on 4 threads, checked against the same program under no
// tool (checksum and instruction count equal, no reports).
//
// lulesh-tasks is Fig 4's Taskgrind configuration with many small segments:
// the racy program at -s 16 -i 2 -tel 64 -tnl 64 on 1 thread, checked
// against its pinned 128 reports and report text.
type luleshRun struct {
	name    string
	p       lulesh.Params
	threads int
	paired  bool // check against an uninstrumented run of the same seed
	want    luleshWant

	seed uint64
	res  result
}

func luleshConfig(name string) *luleshRun {
	if name == "lulesh-s24" {
		return &luleshRun{name: name, p: lulesh.Params{S: 24, TEL: 4, TNL: 4, Iters: 2}, threads: 4, paired: true}
	}
	return &luleshRun{name: name, p: lulesh.Params{S: 16, TEL: 64, TNL: 64, Iters: 2, Racy: true}, threads: 1}
}

func newLulesh(expected, name string) (*luleshRun, error) {
	l := luleshConfig(name)
	var err error
	l.want, err = loadLulesh(expected, name)
	return l, err
}

func (l *luleshRun) job(tool string) job {
	return job{build: func() (*gbuild.Builder, error) { return lulesh.Build(l.p) },
		tool: tool, threads: l.threads, seed: l.seed, render: tool != "none"}
}

func (l *luleshRun) run(r *runner, rng *rand.Rand) error {
	l.seed = luleshSeeds[rng.IntN(len(luleshSeeds))]
	var err error
	l.res, err = r.exec(l.job("taskgrind"))
	return err
}

func (l *luleshRun) check(r *runner) error {
	if err := l.want.verify(l.name+" under taskgrind", l.seed, l.res); err != nil {
		return err
	}
	if !l.paired {
		return nil
	}
	start := time.Now()
	ref, err := reference(l.job("none"))
	r.st.refWall, r.st.refFootprint = time.Since(start), ref.footprint
	if err != nil {
		return err
	}
	return l.want.verify(l.name+" under none", l.seed, ref)
}
