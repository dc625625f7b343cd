package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestE17ObservabilityMatrixShape checks the smoke matrix pairs every
// (structure × regime × reclaimer) cell as trace-off then trace-on, that the
// traced rows carry a merged event count and a parseable overhead ratio, and
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
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tbl.Header))
		}
		if strings.Contains(row[8], "corrupt=true") {
			t.Errorf("row %q corrupted under sound guards", row[0])
		}
		if i%2 == 0 { // trace-off half of the pair
			if !strings.HasSuffix(row[0], "/trace-off") {
				t.Errorf("row %d = %q, want a trace-off row", i, row[0])
			}
			if row[6] != "-" || row[7] != "-" {
				t.Errorf("off row %q has events=%q overhead=%q, want dashes", row[0], row[6], row[7])
			}
			continue
		}
		if !strings.HasSuffix(row[0], "/trace-on") {
			t.Errorf("row %d = %q, want a trace-on row", i, row[0])
		}
		if events, err := strconv.Atoi(row[6]); err != nil || events == 0 {
			t.Errorf("on row %q events = %q, want a nonzero count", row[0], row[6])
		}
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(row[7], "x"), 64)
		if err != nil {
			t.Errorf("on row %q overhead = %q does not parse", row[0], row[7])
			continue
		}
		if ratio > 25 {
			t.Errorf("on row %q overhead %.2fx: tracing has leaked order-of-magnitude cost", row[0], ratio)
		}
	}
}
