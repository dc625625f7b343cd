package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestLoadTablesRoundTrip(t *testing.T) {
	tables := []*Table{{
		ID:     "E10",
		Title:  "t",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s"},
		Rows:   [][]string{{"fig4", "detector", "DWrite+DRead pair", "1000", "42.0", "23.81"}},
		Notes:  []string{"n"},
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tables); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTables(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "E10" || got[0].Rows[0][4] != "42.0" {
		t.Errorf("round trip mangled the snapshot: %+v", got)
	}
}

func TestLoadTablesErrors(t *testing.T) {
	if _, err := LoadTables(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("want error for missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTables(bad); err == nil {
		t.Error("want error for malformed JSON")
	}
}

func TestCompareThroughput(t *testing.T) {
	// Snapshot = one real run; comparing a second real run against it must
	// match every row (same registry, same workloads) and parse every ns/op.
	snapTable, err := E10Throughput()
	if err != nil {
		t.Fatal(err)
	}
	tables, results, err := CompareThroughput([]*Table{snapTable})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "E10-compare" {
		t.Fatalf("E10-only snapshot produced %d tables: %+v", len(tables), tables)
	}
	tbl := tables[0]
	if len(results) != len(snapTable.Rows) {
		t.Errorf("compared %d rows, snapshot has %d", len(results), len(snapTable.Rows))
	}
	for _, row := range tbl.Rows {
		if row[2] == "-" {
			t.Errorf("row %v missing from same-registry snapshot", row)
		}
		if !strings.HasSuffix(row[4], "x") {
			t.Errorf("row %v speedup not rendered: %q", row, row[4])
		}
	}
	for _, r := range results {
		if r.BaseNs <= 0 || r.CurNs <= 0 || r.Speedup <= 0 {
			t.Errorf("degenerate comparison %+v", r)
		}
	}
}

func TestCompareReportsRemovedRows(t *testing.T) {
	// A snapshot row with no fresh counterpart must surface as "removed",
	// not silently shrink the comparison.
	snapTable, err := E10Throughput()
	if err != nil {
		t.Fatal(err)
	}
	snapTable.AddRow("ghost-impl", "detector", "DWrite+DRead pair", "1000", "10.0", "100.00")
	tables, _, err := CompareThroughput([]*Table{snapTable})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "ghost-impl" && row[4] == "removed" && row[2] == "10.0" {
			found = true
		}
	}
	if !found {
		t.Errorf("removed snapshot row not reported:\n%+v", tbl.Rows)
	}
}

func TestCompareMissingTable(t *testing.T) {
	if _, _, err := CompareThroughput([]*Table{{ID: "E1"}}); err == nil {
		t.Error("want error for snapshot without a throughput table")
	}
}

func TestCompareBothThroughputTables(t *testing.T) {
	// A snapshot carrying E10 and E11 yields one comparison per table, with
	// the application rows matched by their structure/guard keys.
	e10, err := E10Throughput()
	if err != nil {
		t.Fatal(err)
	}
	e11, err := E11Apps(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables, results, err := CompareThroughput([]*Table{e10, e11})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E10-compare" || tables[1].ID != "E11-compare" {
		t.Fatalf("unexpected comparison tables: %+v", tables)
	}
	sawApp := false
	for _, r := range results {
		if r.Table == "E11" {
			sawApp = true
			if r.BaseNs <= 0 || r.CurNs <= 0 {
				t.Errorf("degenerate E11 comparison %+v", r)
			}
		}
	}
	if !sawApp {
		t.Error("no application rows compared")
	}
	for _, row := range tables[1].Rows {
		if row[4] == "new" || row[4] == "removed" {
			t.Errorf("same-registry E11 row %v did not match", row)
		}
	}
}

func TestCompareScaleColumn(t *testing.T) {
	// When both sides carry the E14 scale column the diff renders it and the
	// results carry both ratios; a snapshot from before the read-scaling
	// matrix simply compares throughput (old-snapshot tolerance).
	header := []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s", "scale", "outcome"}
	fresh := &Table{ID: "E14", Header: header, Rows: [][]string{
		{"map/raw+none", "structure", "closed loop, w1", "100", "10.0", "0.10", "1.00x", "corrupt=false"},
		{"map/raw+none", "structure", "closed loop, w4", "400", "12.0", "0.33", "0.83x", "corrupt=false"},
	}}
	base := &Table{ID: "E14", Header: header, Rows: [][]string{
		{"map/raw+none", "structure", "closed loop, w1", "100", "11.0", "0.09", "1.00x", "corrupt=false"},
		{"map/raw+none", "structure", "closed loop, w4", "400", "11.0", "0.36", "0.91x", "corrupt=false"},
	}}
	tbl, results, err := compareOne("E14", base, func() (*Table, error) { return fresh, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Header[len(tbl.Header)-2:]; got[0] != "snapshot scale" || got[1] != "current scale" {
		t.Fatalf("scale columns not rendered: header %v", tbl.Header)
	}
	if len(results) != 2 {
		t.Fatalf("compared %d rows, want 2", len(results))
	}
	if r := results[1]; r.BaseScale != 0.91 || r.CurScale != 0.83 {
		t.Errorf("w4 scales = %v/%v, want 0.91/0.83", r.BaseScale, r.CurScale)
	}

	// Strip the scale column from the snapshot: the diff must fall back to
	// throughput-only without error, with zero scales in the results.
	old := &Table{ID: "E14", Header: header[:6], Rows: [][]string{
		base.Rows[0][:6], base.Rows[1][:6],
	}}
	tbl, results, err = compareOne("E14", old, func() (*Table, error) { return fresh, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tbl.Header {
		if h == "snapshot scale" {
			t.Error("scale column rendered against a pre-E14 snapshot")
		}
	}
	for _, r := range results {
		// The fresh run's own scale stays available for programmatic
		// thresholds; only the snapshot side is absent.
		if r.BaseScale != 0 {
			t.Errorf("base scale leaked from a snapshot without the column: %+v", r)
		}
		if r.CurScale == 0 {
			t.Errorf("fresh scale lost when the snapshot lacks the column: %+v", r)
		}
	}
}

func TestComparePressureColumns(t *testing.T) {
	// When both sides carry the E16 limbo/alloc-miss columns the diff
	// renders all four cells and the results carry the counts; a snapshot
	// from before the pressure matrix simply compares throughput.
	header := []string{"implementation", "kind", "workload", "ops", "ns/op", "p999", "limbo", "alloc-miss", "outcome"}
	fresh := &Table{ID: "E16", Header: header, Rows: [][]string{
		{"stack/epoch:auto/write-lean", "structure", "closed loop", "16000", "10.0", "1µs", "0", "0", "corrupt=false"},
		{"stack/epoch:64/write-lean", "structure", "closed loop", "16000", "12.0", "2µs", "96", "6000", "corrupt=false"},
	}}
	base := &Table{ID: "E16", Header: header, Rows: [][]string{
		{"stack/epoch:auto/write-lean", "structure", "closed loop", "16000", "11.0", "1µs", "32", "0", "corrupt=false"},
		{"stack/epoch:64/write-lean", "structure", "closed loop", "16000", "11.0", "2µs", "96", "5000", "corrupt=false"},
	}}
	tbl, results, err := compareOne("E16", base, func() (*Table, error) { return fresh, nil })
	if err != nil {
		t.Fatal(err)
	}
	got := tbl.Header[len(tbl.Header)-4:]
	if got[0] != "snapshot limbo" || got[3] != "current miss" {
		t.Fatalf("pressure columns not rendered: header %v", tbl.Header)
	}
	if len(results) != 2 {
		t.Fatalf("compared %d rows, want 2", len(results))
	}
	if r := results[1]; r.BaseLimbo != 96 || r.CurLimbo != 96 || r.BaseMiss != 5000 || r.CurMiss != 6000 {
		t.Errorf("lazy-cadence counters = %d/%d limbo, %d/%d miss", r.BaseLimbo, r.CurLimbo, r.BaseMiss, r.CurMiss)
	}

	// Strip the counter columns from the snapshot: the diff must fall back
	// to throughput-only without error, with -1 sentinels in the results.
	old := &Table{ID: "E16", Header: header[:6], Rows: [][]string{
		base.Rows[0][:6], base.Rows[1][:6],
	}}
	tbl, results, err = compareOne("E16", old, func() (*Table, error) { return fresh, nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tbl.Header {
		if h == "snapshot limbo" {
			t.Error("pressure column rendered against a pre-E16 snapshot")
		}
	}
	for _, r := range results {
		if r.BaseLimbo != -1 || r.CurMiss != -1 {
			t.Errorf("pressure counters leaked from a snapshot without the columns: %+v", r)
		}
	}
}

func TestCompareBacklogDominatedTailGate(t *testing.T) {
	// A 3x tail regression counts against the gate on a closed-loop row but
	// not on one tagged backlog-dominated (unthrottled open loop): those
	// tails measure backlog depth, not service time.
	header := []string{"implementation", "kind", "workload", "ops", "ns/op", "goodput", "p50", "p99", "p999", "shed", "fast-path", "outcome"}
	row := func(p999, outcome string) []string {
		return []string{"map/raw+none", "structure", "poisson", "100", "10.0", "0.10", "1µs", "2µs", p999, "0", "-", outcome}
	}
	base := &Table{ID: "E13", Header: header, Rows: [][]string{row("3µs", "corrupt=false")}}
	regressed := &Table{ID: "E13", Header: header, Rows: [][]string{row("9µs", "corrupt=false")}}
	tbl, results, err := compareOne("E13", base, func() (*Table, error) { return regressed, nil })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].BacklogDominated {
		t.Error("untagged row marked backlog-dominated")
	}
	if !strings.Contains(tbl.Notes[len(tbl.Notes)-1], "1 rows regressed") {
		t.Errorf("tail gate did not count the regression: %q", tbl.Notes)
	}

	tagged := &Table{ID: "E13", Header: header, Rows: [][]string{row("9µs", "corrupt=false backlog-dominated")}}
	tbl, results, err = compareOne("E13", base, func() (*Table, error) { return tagged, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].BacklogDominated {
		t.Error("tagged row not marked backlog-dominated")
	}
	if results[0].TailGain >= 0.5 {
		t.Errorf("tail gain = %v, test premise needs a >2x regression", results[0].TailGain)
	}
	if !strings.Contains(tbl.Notes[len(tbl.Notes)-1], "0 rows regressed") {
		t.Errorf("backlog-dominated row counted against the tail gate: %q", tbl.Notes)
	}
}

func TestNsPerOpErrors(t *testing.T) {
	if _, err := nsPerOp(&Table{ID: "x", Header: []string{"a", "b"}}); err == nil {
		t.Error("want error for missing ns/op column")
	}
	bad := &Table{
		ID:     "x",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s"},
		Rows:   [][]string{{"fig4", "detector", "w", "1", "not-a-number", "0"}},
	}
	if _, err := nsPerOp(bad); err == nil {
		t.Error("want error for unparsable ns/op")
	}
	short := &Table{
		ID:     "x",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s"},
		Rows:   [][]string{{"fig4"}},
	}
	if _, err := nsPerOp(short); err == nil {
		t.Error("want error for short row")
	}
	good := &Table{
		ID:     "x",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s"},
		Rows:   [][]string{{"fig4", "detector", "w", "1", "12.5", "0"}},
	}
	m, err := nsPerOp(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["fig4|w"]; got != 12.5 {
		t.Errorf("ns/op = %s, want 12.5", strconv.FormatFloat(got, 'f', -1, 64))
	}
}
