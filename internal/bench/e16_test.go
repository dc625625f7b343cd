package bench

import (
	"strconv"
	"strings"
	"testing"

	"abadetect/internal/guard"
	"abadetect/internal/registry"
)

// pressureCell runs one smoke-scale E16 cell and returns its limbo and
// alloc-miss counters plus the tune trace.
func pressureCell(t *testing.T, structID, scheme string) (limbo, miss int64, tune string) {
	t.Helper()
	spec := registry.GuardSpec{Regime: guard.Tagged, TagBits: 16}
	row, err := pressureRun(registry.MustLookup(structID), spec, scheme, e16Profiles(2_000)[0])
	if err != nil {
		t.Fatal(err)
	}
	limbo, err = strconv.ParseInt(row[6], 10, 64)
	if err != nil {
		t.Fatalf("limbo cell %q: %v", row[6], err)
	}
	miss, err = strconv.ParseInt(row[7], 10, 64)
	if err != nil {
		t.Fatalf("alloc-miss cell %q: %v", row[7], err)
	}
	if strings.Contains(row[12], "corrupt=true") {
		t.Fatalf("%s/%s corrupted under sound guards: %s", structID, scheme, row[12])
	}
	return limbo, miss, row[11]
}

// TestLimboLagRegression is the alloc-miss gate from the adaptive-cadence
// work: on the write-leaning cell, a lazy fixed cadence strands retired nodes
// in other handles' pending lists until allocations starve, and epoch:auto's
// backpressure hook must pull its cadence down before that happens.  The
// bound is a fixed multiple of hp's misses plus one pool of slack (hp is
// usually at zero, and scheduling jitter should not fail the gate), and the
// lazy foil must actually starve or the cell has stopped discriminating.
//
// This is a scheduling-sensitive perf gate, not a correctness check: under
// the race detector a preempted worker holds its epoch pin across long
// instrumented stretches, every advance freezes, and ALL epoch cadences
// wedge (the straggler behavior E12's stall test measures on purpose) — so
// the gate skips itself on race builds and retries on noisy schedulers.
func TestLimboLagRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc-miss bounds are scheduling-sensitive; race instrumentation wedges every epoch cadence behind pinned stragglers")
	}
	for _, structID := range []string{"stack", "map"} {
		const attempts = 3
		for attempt := 1; ; attempt++ {
			hpLimbo, hpMiss, _ := pressureCell(t, structID, "hp")
			lazyLimbo, lazyMiss, _ := pressureCell(t, structID, "epoch:64")
			autoLimbo, autoMiss, autoTune := pressureCell(t, structID, "epoch:auto")
			t.Logf("%s attempt %d: hp limbo=%d miss=%d; epoch:64 limbo=%d miss=%d; epoch:auto limbo=%d miss=%d tune=%s",
				structID, attempt, hpLimbo, hpMiss, lazyLimbo, lazyMiss, autoLimbo, autoMiss, autoTune)
			bound := 8*hpMiss + int64(e16Capacity)
			ok := lazyMiss > 0 && autoMiss <= bound && autoMiss < lazyMiss && autoTune != "-"
			if ok {
				break
			}
			if attempt < attempts {
				continue
			}
			if lazyMiss == 0 {
				t.Errorf("%s: the lazy foil epoch:64 starved no allocations — the cell no longer discriminates", structID)
			}
			if autoMiss > bound {
				t.Errorf("%s: epoch:auto alloc-misses = %d, want ≤ 8×hp (%d) + %d", structID, autoMiss, hpMiss, e16Capacity)
			}
			if autoMiss >= lazyMiss {
				t.Errorf("%s: epoch:auto alloc-misses = %d did not improve on the lazy cadence's %d", structID, autoMiss, lazyMiss)
			}
			if autoTune == "-" {
				t.Errorf("%s: epoch:auto reported no cadence moves under write-leaning churn", structID)
			}
			break
		}
	}
}

// TestE16PressureMatrixShape checks the smoke matrix covers every scheme for
// both structures (map runs both profiles, the stack only the write-leaning
// one) and that the counter columns parse.
func TestE16PressureMatrixShape(t *testing.T) {
	tbl, err := E16PressureMatrix(Options{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(e16Schemes) * 3; len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), want)
	}
	schemes := map[string]bool{}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tbl.Header))
		}
		for _, col := range []int{6, 7, 8, 9, 10} {
			if _, err := strconv.ParseInt(row[col], 10, 64); err != nil {
				t.Errorf("row %q column %q = %q is not a count", row[0], tbl.Header[col], row[col])
			}
		}
		if strings.Contains(row[12], "corrupt=true") {
			t.Errorf("row %q corrupted under sound guards", row[0])
		}
		schemes[strings.SplitN(row[0], "/", 3)[1]] = true
	}
	for _, s := range e16Schemes {
		if !schemes[s] {
			t.Errorf("matrix lacks scheme %q", s)
		}
	}
}
