package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	// One column per unit, one absent metric: the JSON carries numbers and
	// null beside the units, and the loaded table prints the same text.
	tbl := &Table{
		ID:     "EX",
		Title:  "t",
		Header: []string{"implementation", "ops", "ns/op", "Mops/s", "scale", "p999"},
		Units:  []Unit{Label, Count, Ns, Rate, Ratio, Duration},
		Notes:  []string{"n"},
	}
	tbl.AddRow("fig4", 1000, 42.0, 23.81, 0.91, 1234*time.Nanosecond)
	tbl.AddRow("shed", 0, nil, 1.5, 1.0, time.Duration(0))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Table{tbl}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"count"`, `"duration"`, "null", "23.81"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("snapshot JSON lacks %s:\n%s", want, buf.String())
		}
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Machine != CurrentMachine() {
		t.Errorf("machine header = %+v, want %+v", snap.Machine, CurrentMachine())
	}
	var want, got bytes.Buffer
	if err := tbl.Fprint(&want); err != nil {
		t.Fatal(err)
	}
	if err := FprintAll(&got, snap.Tables); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("round trip prints\n%s\nwant\n%s", got.String(), want.String())
	}
	lines := strings.Split(got.String(), "\n")
	for i, want := range [][]string{{"fig4", "1000", "42.0", "23.81", "0.91x", "1.234µs"}, {"shed", "0", "-", "1.50", "1.00x", "0s"}} {
		if fields := strings.Fields(lines[3+i]); !slices.Equal(fields, want) {
			t.Errorf("row %d prints %q, want %q", i, fields, want)
		}
	}
}

func TestLoadSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSnapshot(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("want error for missing file")
	}
	for name, body := range map[string]string{
		"malformed JSON":  "not json",
		"bare array":      `[{"ID": "E10"}]`,
		"non-scalar cell": `{"Tables": [{"ID": "E10", "Header": ["a"], "Rows": [[true]]}]}`,
	} {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(path); err == nil {
			t.Errorf("want error for %s", name)
		}
	}
}

func TestCommittedSnapshotsAreTyped(t *testing.T) {
	// Every committed snapshot loads, and in its E10–E17 tables (the ones
	// with an ns/op column) every diffed column is a metric whose cells are
	// numbers or absent.
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed snapshots: %v", err)
	}
	for _, path := range paths {
		snap, err := LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := FindTable(snap.Tables, "E10"); !ok {
			t.Errorf("%s has no E10 table", path)
		}
		for _, tbl := range snap.Tables {
			if column(tbl, "ns/op") < 0 {
				continue
			}
			if len(tbl.Units) != len(tbl.Header) {
				t.Errorf("%s %s: %d units for %d columns", path, tbl.ID, len(tbl.Units), len(tbl.Header))
				continue
			}
			if err := diffable(tbl); err != nil {
				t.Errorf("%s: %v", path, err)
			}
			for _, d := range diffs {
				if col := column(tbl, d.col); col >= 0 && tbl.Units[col] == Label {
					t.Errorf("%s %s: diffed column %s is a label", path, tbl.ID, d.col)
				}
			}
		}
	}
}

func TestDiffRejectsMalformedTables(t *testing.T) {
	header := []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s"}
	units := []Unit{Label, Label, Label, Count, Ns, Rate}
	good := &Table{ID: "E10", Header: header, Units: units}
	good.AddRow("fig4", "detector", "w", 1, 12.5, 0.0)
	if _, err := DiffThroughput([]*Table{good}, []*Table{good}); err != nil {
		t.Fatalf("well-formed table: %v", err)
	}
	noNs := &Table{ID: "E10", Header: []string{"a", "b"}}
	text := &Table{ID: "E10", Header: header, Units: units}
	text.AddRow("fig4", "detector", "w", "1", "not-a-number", "0")
	short := &Table{ID: "E10", Header: header, Units: units}
	short.AddRow("fig4")
	for name, tc := range map[string]struct{ snapshot, fresh *Table }{
		"snapshot without an ns/op column":  {noNs, good},
		"fresh run without an ns/op column": {good, noNs},
		"text ns/op cell":                   {text, good},
		"row shorter than its header":       {good, short},
	} {
		if _, err := DiffThroughput([]*Table{tc.snapshot}, []*Table{tc.fresh}); err == nil {
			t.Errorf("want error for %s", name)
		}
	}
}

// num returns a comparison cell's value, failing the test when it is not a
// number.
func num(t *testing.T, row []Cell, col int) float64 {
	t.Helper()
	v, ok := row[col].Num()
	if !ok {
		t.Fatalf("row %v: cell %d is not a number", row, col)
	}
	return v
}

func TestCompareThroughput(t *testing.T) {
	// Snapshot = one real run; comparing a second real run against it must
	// match every row (same registry, same workloads) with a typed speedup.
	snapTable, err := E10Throughput()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := CompareThroughput([]*Table{snapTable})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "E10-compare" {
		t.Fatalf("E10-only snapshot produced %d tables: %+v", len(tables), tables)
	}
	tbl := tables[0]
	if len(tbl.Rows) != len(snapTable.Rows) {
		t.Errorf("compared %d rows, snapshot has %d", len(tbl.Rows), len(snapTable.Rows))
	}
	for _, row := range tbl.Rows {
		if num(t, row, 2) <= 0 || num(t, row, 3) <= 0 || num(t, row, 4) <= 0 {
			t.Errorf("degenerate comparison %v", row)
		}
	}
}

func TestCompareReportsRemovedRows(t *testing.T) {
	// A snapshot row with no fresh counterpart must surface as "removed",
	// not silently shrink the comparison; an absent ns/op on either side of
	// an unmatched row prints "-", not 0.0.
	fresh, err := E10Throughput()
	if err != nil {
		t.Fatal(err)
	}
	snap := *fresh
	snap.Rows = slices.Clip(snap.Rows)
	snap.AddRow("ghost-impl", "detector", "DWrite+DRead pair", 1000, 10.0, 100.0)
	snap.AddRow("ghost-shed", "detector", "shed", 0, nil, nil)
	withNew := *fresh
	withNew.Rows = slices.Clip(withNew.Rows)
	withNew.AddRow("ghost-new", "detector", "shed", 0, nil, nil)
	tables, err := DiffThroughput([]*Table{&snap}, []*Table{&withNew})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	found := false
	for _, row := range tbl.Rows {
		if v, ok := row[2].Num(); row[0].Text() == "ghost-impl" && row[4].Text() == "removed" && ok && v == 10 {
			found = true
		}
	}
	if !found {
		t.Errorf("removed snapshot row not reported:\n%+v", tbl.Rows)
	}
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	for impl, verdict := range map[string]string{"ghost-shed": "removed", "ghost-new": "new"} {
		want := []string{impl, "shed", "-", "-", verdict}
		seen := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if fields := strings.Fields(line); len(fields) > 0 && fields[0] == impl {
				seen = true
				if !slices.Equal(fields, want) {
					t.Errorf("%s row prints %q, want %q", impl, fields, want)
				}
			}
		}
		if !seen {
			t.Errorf("no %s row:\n%s", impl, buf.String())
		}
	}
}

func TestCompareMissingTable(t *testing.T) {
	if _, err := CompareThroughput([]*Table{{ID: "E1"}}); err == nil {
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
	tables, err := CompareThroughput([]*Table{e10, e11})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E10-compare" || tables[1].ID != "E11-compare" {
		t.Fatalf("unexpected comparison tables: %+v", tables)
	}
	if len(tables[1].Rows) == 0 {
		t.Error("no application rows compared")
	}
	for _, row := range tables[1].Rows {
		if row[4].Text() == "new" || row[4].Text() == "removed" {
			t.Errorf("same-registry E11 row %v did not match", row)
			continue
		}
		if num(t, row, 2) <= 0 || num(t, row, 3) <= 0 {
			t.Errorf("degenerate E11 comparison %v", row)
		}
	}
}

func TestCompareScaleColumn(t *testing.T) {
	// When both sides carry the E14 scale column the diff renders it with
	// both ratios; a snapshot from before the read-scaling matrix simply
	// compares throughput (old-snapshot tolerance).
	table := func(rows ...[]any) *Table {
		tbl := &Table{ID: "E14",
			Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s", "scale", "outcome"},
			Units:  []Unit{Label, Label, Label, Count, Ns, Rate, Ratio, Label}}
		for _, r := range rows {
			tbl.AddRow(r...)
		}
		return tbl
	}
	fresh := table(
		[]any{"map/raw+none", "structure", "closed loop, w1", 100, 10.0, 0.10, 1.00, "corrupt=false"},
		[]any{"map/raw+none", "structure", "closed loop, w4", 400, 12.0, 0.33, 0.83, "corrupt=false"})
	base := table(
		[]any{"map/raw+none", "structure", "closed loop, w1", 100, 11.0, 0.09, 1.00, "corrupt=false"},
		[]any{"map/raw+none", "structure", "closed loop, w4", 400, 11.0, 0.36, 0.91, "corrupt=false"})
	tbl, err := compareOne(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Header[len(tbl.Header)-2:]; got[0] != "snapshot scale" || got[1] != "current scale" {
		t.Fatalf("scale columns not rendered: header %v", tbl.Header)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("compared %d rows, want 2", len(tbl.Rows))
	}
	if r := tbl.Rows[1]; num(t, r, 5) != 0.91 || num(t, r, 6) != 0.83 {
		t.Errorf("w4 scales = %v, want 0.91/0.83", r[5:])
	}

	// Strip the scale column from the snapshot: the diff must fall back to
	// throughput-only without error.
	old := &Table{ID: "E14", Header: base.Header[:6], Units: base.Units[:6],
		Rows: [][]Cell{base.Rows[0][:6], base.Rows[1][:6]}}
	tbl, err = compareOne(old, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(tbl.Header, "snapshot scale") {
		t.Error("scale column rendered against a pre-E14 snapshot")
	}
	if len(tbl.Rows) != 2 || num(t, tbl.Rows[1], 4) != 11.0/12.0 {
		t.Errorf("throughput-only fallback rows: %v", tbl.Rows)
	}
}

func TestComparePressureColumns(t *testing.T) {
	// When both sides carry the E16 limbo/alloc-miss columns the diff
	// renders all four cells with the counts; a snapshot from before the
	// pressure matrix simply compares throughput.
	table := func(rows ...[]any) *Table {
		tbl := &Table{ID: "E16",
			Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "p999", "limbo", "alloc-miss", "outcome"},
			Units:  []Unit{Label, Label, Label, Count, Ns, Duration, Count, Count, Label}}
		for _, r := range rows {
			tbl.AddRow(r...)
		}
		return tbl
	}
	fresh := table(
		[]any{"stack/epoch:auto/write-lean", "structure", "closed loop", 16000, 10.0, time.Microsecond, 0, 0, "corrupt=false"},
		[]any{"stack/epoch:64/write-lean", "structure", "closed loop", 16000, 12.0, 2 * time.Microsecond, 96, 6000, "corrupt=false"})
	base := table(
		[]any{"stack/epoch:auto/write-lean", "structure", "closed loop", 16000, 11.0, time.Microsecond, 32, 0, "corrupt=false"},
		[]any{"stack/epoch:64/write-lean", "structure", "closed loop", 16000, 11.0, 2 * time.Microsecond, 96, 5000, "corrupt=false"})
	tbl, err := compareOne(base, fresh)
	if err != nil {
		t.Fatal(err)
	}
	got := tbl.Header[len(tbl.Header)-4:]
	if got[0] != "snapshot limbo" || got[3] != "current miss" {
		t.Fatalf("pressure columns not rendered: header %v", tbl.Header)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("compared %d rows, want 2", len(tbl.Rows))
	}
	n := len(tbl.Header)
	if r := tbl.Rows[1]; num(t, r, n-4) != 96 || num(t, r, n-3) != 96 || num(t, r, n-2) != 5000 || num(t, r, n-1) != 6000 {
		t.Errorf("lazy-cadence counters = %v limbo, %v miss", r[n-4:n-2], r[n-2:])
	}

	// Strip the counter columns from the snapshot: the diff must fall back
	// to throughput-only without error.
	old := &Table{ID: "E16", Header: base.Header[:6], Units: base.Units[:6],
		Rows: [][]Cell{base.Rows[0][:6], base.Rows[1][:6]}}
	tbl, err = compareOne(old, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(tbl.Header, "snapshot limbo") || slices.Contains(tbl.Header, "snapshot miss") {
		t.Errorf("pressure columns rendered against a pre-E16 snapshot: %v", tbl.Header)
	}
}

func TestCompareBacklogDominatedTailGate(t *testing.T) {
	// A 3x tail regression counts against the gate on a closed-loop row but
	// not on one tagged backlog-dominated (unthrottled open loop): those
	// tails measure backlog depth, not service time.
	table := func(p999 time.Duration, outcome string) *Table {
		tbl := &Table{ID: "E13",
			Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "goodput", "p50", "p99", "p999", "shed", "fast-path", "outcome"},
			Units:  []Unit{Label, Label, Label, Count, Ns, Rate, Duration, Duration, Duration, Count, Label, Label}}
		tbl.AddRow("map/raw+none", "structure", "poisson", 100, 10.0, 0.10, time.Microsecond, 2*time.Microsecond, p999, 0, "-", outcome)
		return tbl
	}
	base := table(3*time.Microsecond, "corrupt=false")
	tbl, err := compareOne(base, table(9*time.Microsecond, "corrupt=false"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Notes[len(tbl.Notes)-1], "1 rows regressed") {
		t.Errorf("tail gate did not count the untagged regression: %q", tbl.Notes)
	}

	tbl, err = compareOne(base, table(9*time.Microsecond, "corrupt=false backlog-dominated"))
	if err != nil {
		t.Fatal(err)
	}
	if gain := num(t, tbl.Rows[0], column(tbl, "tail gain")); gain >= 0.5 {
		t.Errorf("tail gain = %v, test premise needs a >2x regression", gain)
	}
	if !strings.Contains(tbl.Notes[len(tbl.Notes)-1], "0 rows regressed") {
		t.Errorf("backlog-dominated row counted against the tail gate: %q", tbl.Notes)
	}
}
