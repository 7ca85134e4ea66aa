package harness_test

import (
	"testing"

	"repro/internal/harness"
)

// TestDigestSumPinned pins Digest.Sum's encoding: digests recorded in run
// stores and returned by the daemon stay comparable across builds only
// while it is unchanged.
func TestDigestSumPinned(t *testing.T) {
	d := harness.Digest{
		Report: "== 1 report(s)\n", Stdout: "x=42\n", Crash: "", Token: "tg1:cHJvZz10YXNrLmM",
		Inject: "pool=1/3", Exit: 1, Blocks: 2, Instrs: 3, Dirty: 4, Accesses: 5, Pages: 6,
		Mem: 0x0123456789abcdef, State: 0xfedcba9876543210,
	}
	const want = "26cef220593ad42fc8d64e656dbf18cb81f8bf184d04e7b7796a3f5b0e6caeff"
	if got := d.Sum(); got != want {
		t.Fatalf("Sum = %s, want %s", got, want)
	}
	// Length prefixes keep the string fields apart.
	moved := d
	moved.Report, moved.Stdout = d.Report+"x", "=42\n"
	if moved.Sum() == d.Sum() {
		t.Fatal("moving a byte between fields left the sum unchanged")
	}
}
