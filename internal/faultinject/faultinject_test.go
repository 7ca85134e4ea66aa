package faultinject

import (
	"testing"

	"repro/internal/obs"
)

func TestFireDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		in := New(seed)
		in.Enable(PoolAlloc, 3)
		out := make([]bool, 30)
		for i := range out {
			out[i] = in.Fire(PoolAlloc)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at occurrence %d", i)
		}
	}
	// Exactly one firing per period.
	fired := 0
	for _, hit := range a {
		if hit {
			fired++
		}
	}
	if fired != 10 {
		t.Fatalf("fired %d of 30 with period 3, want 10", fired)
	}
	// Different seeds phase the pattern differently for some seed pair.
	diverged := false
	for seed := uint64(0); seed < 8 && !diverged; seed++ {
		c := pattern(seed)
		for i := range a {
			if a[i] != c[i] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("every seed produced the identical pattern")
	}
}

func TestKindsIndependent(t *testing.T) {
	in := New(1)
	in.Enable(HeapAlloc, 2)
	for i := 0; i < 10; i++ {
		in.Fire(HeapAlloc)
		if in.Fire(StealDeny) {
			t.Fatal("disabled kind fired")
		}
	}
	if in.Seen(HeapAlloc) != 10 || in.Fired(HeapAlloc) != 5 {
		t.Fatalf("heap seen=%d fired=%d", in.Seen(HeapAlloc), in.Fired(HeapAlloc))
	}
	if in.Seen(StealDeny) != 0 {
		t.Fatalf("disabled kind counted decisions: %d", in.Seen(StealDeny))
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Fire(HeapAlloc) || in.Enabled() || in.Seen(PoolAlloc) != 0 {
		t.Fatal("nil injector not inert")
	}
	in.Enable(HeapAlloc, 1) // must not panic
	in.PublishMetrics(obs.NewRegistry())
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("pool=7, steal=3", 9)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Enabled() {
		t.Fatal("spec did not enable anything")
	}
	// Only the named kinds are armed.
	for i := 0; i < 21; i++ {
		in.Fire(PoolAlloc)
		in.Fire(StealDeny)
		if in.Fire(HeapAlloc) || in.Fire(SchedPerturb) {
			t.Fatal("unnamed kind fired")
		}
	}
	if in.Fired(PoolAlloc) != 3 || in.Fired(StealDeny) != 7 {
		t.Fatalf("pool=%d steal=%d", in.Fired(PoolAlloc), in.Fired(StealDeny))
	}

	if in, err := ParseSpec("", 1); err != nil || in.Enabled() {
		t.Fatalf("empty spec: %v, enabled=%v", err, in.Enabled())
	}
	for _, bad := range []string{"pool", "bogus=3", "pool=zero", "pool=0", "tsread=2"} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestPublishMetrics(t *testing.T) {
	in := New(5)
	in.Enable(SchedPerturb, 2)
	for i := 0; i < 6; i++ {
		in.Fire(SchedPerturb)
	}
	reg := obs.NewRegistry()
	in.PublishMetrics(reg)
	snap := reg.Snapshot()
	if got := snap.Counter("faultinject_considered_total", "kind", "sched"); got != 6 {
		t.Fatalf("considered = %d", got)
	}
	if got := snap.Counter("faultinject_injected_total", "kind", "sched"); got != 3 {
		t.Fatalf("injected = %d", got)
	}
}
