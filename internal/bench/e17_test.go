package bench

import (
	"strings"
	"testing"
)

// TestE17ObservabilityMatrixShape checks the smoke matrix pairs every
// (structure × regime × reclaimer) cell as trace-off then trace-on, that the
// traced rows carry a merged event count and an overhead ratio, and
// that no sound cell corrupts.  This is the CI half of the trace-overhead
// gate: the ratio asserted here is deliberately lax (a leak that makes
// tracing order-of-magnitude expensive fails fast even on a noisy runner);
// the tight gate on the *untraced* rows is -bench-compare against the
// committed snapshot, where trace-off must stay within noise.
func TestE17ObservabilityMatrixShape(t *testing.T) {
	tbl, err := E17ObservabilityMatrix(Options{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	// stack/map × 2 regimes × 2 schemes, each as an off/on pair.
	if want := 2 * len(e17Specs) * len(e17Schemes) * 2; len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), want)
	}
	checkTyped(t, tbl)
	for i, row := range tbl.Rows {
		label := row[0].Text()
		if strings.Contains(row[8].Text(), "corrupt=true") {
			t.Errorf("row %q corrupted under sound guards", label)
		}
		events, withEvents := row[6].Num()
		ratio, withRatio := row[7].Num()
		if i%2 == 0 { // trace-off half of the pair
			if !strings.HasSuffix(label, "/trace-off") {
				t.Errorf("row %d = %q, want a trace-off row", i, label)
			}
			if withEvents || withRatio {
				t.Errorf("off row %q has events=%v overhead=%v, want both absent", label, row[6], row[7])
			}
			continue
		}
		if !strings.HasSuffix(label, "/trace-on") {
			t.Errorf("row %d = %q, want a trace-on row", i, label)
		}
		if !withEvents || events == 0 {
			t.Errorf("on row %q events = %v, want a nonzero count", label, row[6])
		}
		if !withRatio {
			t.Errorf("on row %q has no overhead ratio", label)
			continue
		}
		if ratio > 25 {
			t.Errorf("on row %q overhead %.2fx: tracing has leaked order-of-magnitude cost", label, ratio)
		}
	}
}
