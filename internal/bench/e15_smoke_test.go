package bench

import (
	"strconv"
	"strings"
	"testing"

	"abadetect/internal/guard"
	"abadetect/internal/registry"
)

// TestE15SmokeTier runs the full-regime 10k-key tier of the growth matrix:
// every cell must actually grow (splits and appends nonzero), reach its
// ceiling, and — on the sound regimes — audit clean.  Raw's growth-path ABA
// is proven deterministically by kv.MapGrowABAScenario, so this test only
// asserts the sound cells' cleanliness, not raw's corruption.
func TestE15SmokeTier(t *testing.T) {
	tbl, err := E15GrowthMatrix(Options{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 { // 4 regimes × 3 schemes
		t.Fatalf("10k tier has %d rows, want 12", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		impl, splits, appends, outcome := row[0], row[8], row[9], row[11]
		if splits == "0" || appends == "0" {
			t.Errorf("%s did not grow: splits=%s appends=%s", impl, splits, appends)
		}
		if !strings.Contains(outcome, "cap=1024→15000") {
			t.Errorf("%s did not reach the ceiling: %s", impl, outcome)
		}
		if !strings.HasPrefix(impl, "map/raw") && strings.Contains(outcome, "corrupt=true") {
			t.Errorf("sound cell %s corrupted under growth: %s", impl, outcome)
		}
	}
}

// TestE15HeadlineTierReachesOneMillionKeys is the headline acceptance cell:
// a tag16+hp map grows from a 1024-node pool to 1M+ keys while serving 10M
// operations — no stop-the-world phase, no corruption, and no pool
// exhaustion beyond the handful of alloc misses that trigger the segment
// appends themselves.  ~1 minute of wall clock, so -short skips it.
func TestE15HeadlineTierReachesOneMillionKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-key/10M-op growth cell: skipped in -short mode")
	}
	im, ok := registry.Lookup("map")
	if !ok {
		t.Fatal("no registered map structure")
	}
	tier := e15Tier{keys: 1_000_000, ops: 10_000_000}
	spec := registry.GuardSpec{Regime: guard.Tagged, TagBits: 16}
	row, err := growRun(im, spec, registry.MustLookup("hp"), tier, 2)
	if err != nil {
		t.Fatal(err)
	}
	outcome := row[11]
	if strings.Contains(outcome, "corrupt=true") {
		t.Fatalf("headline cell corrupted: %s", outcome)
	}
	// Growth stops at the first doubling that fits the live set, so the
	// final capacity need not hit the 1.5M ceiling — it must cover the key
	// space.
	capIdx := strings.Index(outcome, "cap=1024→")
	finalCap, _ := strconv.Atoi(outcome[capIdx+len("cap=1024→"):])
	if finalCap < tier.keys {
		t.Errorf("headline cell capacity %d never covered the %d-key space: %s",
			finalCap, tier.keys, outcome)
	}
	appends, _ := strconv.Atoi(row[9])
	if appends == 0 {
		t.Error("headline cell reports zero segment appends")
	}
	// Each geometric append is triggered by an alloc miss; anything well
	// beyond that would mean operations saw a false "pool full" mid-resize.
	i := strings.Index(outcome, "exhausted=")
	rest := outcome[i+len("exhausted="):]
	exhausted, _ := strconv.Atoi(rest[:strings.IndexByte(rest, ' ')])
	if exhausted > 100*appends {
		t.Errorf("pool exhaustion beyond growth triggers: exhausted=%d appends=%d (%s)",
			exhausted, appends, outcome)
	}
	t.Logf("headline cell: %v", row)
}
