package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/drb"
)

var update = flag.Bool("update", false, "rewrite ../expected from the current program")

// definition is the part of BENCHMARK.json the smoke test checks.
type definition struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDefinition(t *testing.T) definition {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// runOnce runs one workload for a single short iteration and returns its
// result line.
func runOnce(t *testing.T, expected, workload string, trace int) resultLine {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.001", "-trace", strconv.Itoa(trace),
		"-setups", "1", "-expected", expected, "-out", t.TempDir()}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("%s trace %d: exit %d\n%s", workload, trace, code, errs.String())
	}
	var res resultLine
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		t.Fatalf("%s trace %d: last line: %v\n%s", workload, trace, err, out.String())
	}
	if res.Attempted < 1 {
		t.Errorf("%s trace %d: attempted %d", workload, trace, res.Attempted)
	}
	return res
}

// TestSmoke runs every workload in both modes and checks the output against
// the benchmark definition: every metric emitted with its unit, and every
// output correct.
func TestSmoke(t *testing.T) {
	def := loadDefinition(t)
	if len(def.EndToEnd) > 16 || len(def.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(def.EndToEnd), len(def.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, list := range [][]struct{ Name, Unit string }{def.EndToEnd, def.PerLayer} {
		for _, m := range list {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
		}
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{def.EndToEnd, def.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				t.Parallel()
				res := runOnce(t, "../expected", w, trace)
				if !res.Correct || res.Failed != 0 {
					t.Errorf("correct=%t failed=%d", res.Correct, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %v with unit %q, defined with %q", m.Name, ok, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptExpectation checks that a pinned reference the program does
// not reproduce fails the run.
func TestCorruptExpectation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, name := range []string{"table1.txt", "lulesh-s24.json", "lulesh-tasks.json"} {
		data, err := os.ReadFile(filepath.Join("../expected", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "lulesh-tasks.json" {
			data = bytes.Replace(data, []byte(`"reports": 128`), []byte(`"reports": 127`), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res := runOnce(t, dir, "lulesh-tasks", 0)
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("corrupted expectation: correct=%t attempted=%d failed=%d, want every run failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

// TestExpected rewrites the pinned references with -update: Table I as
// drbench renders it, and each LULESH workload's outcome on every
// scheduler seed its runs draw from.
func TestExpected(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite ../expected")
	}
	rows, err := drb.GenerateTableI(drb.DefaultSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../expected/table1.txt", []byte(drb.FormatTableI(rows)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lulesh-s24", "lulesh-tasks"} {
		l := luleshConfig(name)
		w := luleshWant{Instrs: map[string]uint64{}}
		for _, seed := range luleshSeeds {
			l.seed = seed
			res, err := reference(l.job("taskgrind"))
			if err != nil {
				t.Fatal(err)
			}
			w.Checksum, w.Reports = res.exit, res.reports
			w.Instrs[strconv.FormatUint(seed, 10)] = res.instrs
			if !l.paired {
				w.ReportSHA256 = sha(res.text)
			}
		}
		data, err := json.MarshalIndent(w, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../expected/"+name+".json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
