package archer

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

// normalize builds a VC from a short slice.
func mkVC(vals []uint8) VC {
	v := make(VC, len(vals))
	for i, x := range vals {
		v[i] = uint32(x)
	}
	return v
}

// TestQuickAcquireIsLUB: acquire computes the pointwise least upper bound —
// idempotent, commutative (on equal lengths), and dominating both inputs.
func TestQuickAcquireIsLUB(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a, b := mkVC(av), mkVC(bv)
		m1 := a.clone()
		m1.acquire(b)
		// Dominates both.
		for i, x := range a {
			if m1[i] < x {
				return false
			}
		}
		for i, x := range b {
			if m1[i] < x {
				return false
			}
		}
		// Idempotent.
		m2 := m1.clone()
		m2.acquire(b)
		m2.acquire(a)
		for i := range m1 {
			if m1[i] != m2[i] {
				return false
			}
		}
		// Every component comes from one of the inputs.
		for i, x := range m1 {
			var fromA, fromB uint32
			if i < len(a) {
				fromA = a[i]
			}
			if i < len(b) {
				fromB = b[i]
			}
			if x != fromA && x != fromB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCoversSemantics: covers is exactly the component comparison, with
// out-of-range components treated as unknown (not covered).
func TestCoversSemantics(t *testing.T) {
	v := mkVC([]uint8{5, 0, 3})
	if !v.covers(0, 5) || !v.covers(0, 4) || v.covers(0, 6) {
		t.Error("component 0")
	}
	if v.covers(1, 1) || !v.covers(1, 0) {
		t.Error("component 1")
	}
	if v.covers(7, 0) && len(v) <= 7 {
		// covers(tid>=len, clk) must be false for clk>0; clk==0 is
		// trivially covered by the >= comparison only when in range.
		t.Error("out of range")
	}
	if v.covers(7, 1) {
		t.Error("out of range clk>0")
	}
}

// TestEnsureGrowsZeroFilled.
func TestEnsureGrowsZeroFilled(t *testing.T) {
	v := VC{}
	v.ensure(3)
	if len(v) != 4 {
		t.Fatalf("len = %d", len(v))
	}
	for _, x := range v {
		if x != 0 {
			t.Fatal("not zero filled")
		}
	}
}

// TestReleaseAdvancesOwnComponent: release returns the clock as it was and
// bumps the releasing thread's own component, so consecutive releases are
// ordered.
func TestReleaseAdvancesOwnComponent(t *testing.T) {
	a := New()
	th := &vm.Thread{ID: 2}
	a.vc(th).acquire(VC{4, 0, 0, 7})
	before := a.vc(th).clone()
	s1 := a.release(th)
	if !slices.Equal(s1, before) {
		t.Fatalf("snapshot %v, want the clock before release %v", s1, before)
	}
	want := before.clone()
	want[2]++
	if got := *a.vc(th); !slices.Equal(got, want) {
		t.Fatalf("clock after release %v, want %v", got, want)
	}
	s2 := a.release(th)
	if !s2.covers(2, s1[2]) || s1.covers(2, s2[2]) {
		t.Fatalf("snapshots %v then %v are not ordered", s1, s2)
	}
}
