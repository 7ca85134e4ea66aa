package repro

import (
	"testing"

	"repro/internal/drb"
	"repro/internal/harness"
	"repro/internal/tools/toolreg"
)

// setupAllocsMax bounds the allocations one Table I instance's set-up
// makes: building and linking 079-taskdep3-orig and constructing its
// instance under each Table I tool and under no tool. The set-up makes
// 132, 159, 162, 159 and 157 (238, 265, 268, 265 and 262 when every
// program linked its own copy of the prelude and every instance copied the
// host tables); the bounds leave 8 for toolchain drift. An allocation
// count is a property of the code, not of the host, so the bounds hold on
// any machine.
var setupAllocsMax = map[string]float64{
	"none": 140, "tasksan": 167, "archer": 170, "romp": 167, "taskgrind": 165,
}

// TestSetupAllocs guards what a Table I instance's set-up allocates:
// the OpenMP prelude is linked once per process, and an instance binds
// only the host calls its image imports.
func TestSetupAllocs(t *testing.T) {
	bm, ok := drb.ByName("079-taskdep3-orig")
	if !ok {
		t.Fatal("079-taskdep3-orig not found")
	}
	for _, name := range []string{"none", "tasksan", "archer", "romp", "taskgrind"} {
		var err error
		n := testing.AllocsPerRun(20, func() {
			im, lerr := bm.Build().Link()
			if lerr != nil {
				err = lerr
				return
			}
			tool, _, merr := toolreg.Make(name)
			if merr != nil {
				err = merr
				return
			}
			_, err = harness.New(harness.Setup{Image: im, Tool: tool, Seed: 1, Threads: 4})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: %.0f allocations", name, n)
		if n > setupAllocsMax[name] {
			t.Errorf("%s: %.0f allocations per set-up, bound %.0f", name, n, setupAllocsMax[name])
		}
	}
}
