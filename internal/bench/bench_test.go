package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "bee"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EX — demo", "a", "bee", "333", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestE2TimeSpaceShape(t *testing.T) {
	tbl, err := E2TimeSpace([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // 2 implementations x 2 n values
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// Figure 3 rows must show t = 2n+1.
	found := 0
	for _, row := range tbl.Rows {
		if row[1].Text() == "fig3 (1 CAS)" {
			found++
			switch row[0].Text() {
			case "2":
				if row[3].Text() != "5" {
					t.Errorf("n=2: t = %s, want 5", row[3].Text())
				}
			case "4":
				if row[3].Text() != "9" {
					t.Errorf("n=4: t = %s, want 9", row[3].Text())
				}
			}
		}
	}
	if found != 2 {
		t.Errorf("found %d Figure 3 rows, want 2", found)
	}
}

func TestE7SeparationShape(t *testing.T) {
	tbl, err := E7Separation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if f, l := first[1].Text(), last[1].Text(); f >= l && len(f) >= len(l) {
		t.Errorf("unbounded bits did not grow: %s -> %s", f, l)
	}
	if first[2] != last[2] {
		t.Errorf("Figure 4 bits changed: %s -> %s", first[2].Text(), last[2].Text())
	}
}

func TestE1AndE8Verdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking is slow in -short mode")
	}
	e1, err := E1ModelCheck()
	if err != nil {
		t.Fatal(err)
	}
	refuted, survived := 0, 0
	for _, row := range e1.Rows {
		switch {
		case strings.HasPrefix(row[3].Text(), "REFUTED"):
			refuted++
		case strings.HasPrefix(row[3].Text(), "no witness"):
			survived++
		}
	}
	if refuted < 4 {
		t.Errorf("E1: only %d refutations", refuted)
	}
	if survived < 2 {
		t.Errorf("E1: only %d survivals", survived)
	}

	e8, err := E8Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e8.Rows[0][4].Text(), "no witness") {
		t.Errorf("E8: paper variant did not survive: %v", e8.Rows[0])
	}
	for i := 1; i < len(e8.Rows); i++ {
		if !strings.HasPrefix(e8.Rows[i][4].Text(), "REFUTED") {
			t.Errorf("E8: ablation %d not refuted: %v", i, e8.Rows[i])
		}
	}
}

func TestExperimentIndex(t *testing.T) {
	exps := Experiments()
	if len(exps) != 17 {
		t.Fatalf("index has %d experiments, want 17", len(exps))
	}
	for i, e := range exps {
		if want := "E" + string(rune('1'+i)); i < 9 && e.ID != want {
			t.Errorf("experiment %d is %q, want %q", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete entry", e.ID)
		}
	}
	if exps[9].ID != "E10" {
		t.Errorf("last experiment is %q, want E10", exps[9].ID)
	}
	if _, ok := Lookup("E2"); !ok {
		t.Error("Lookup(E2) failed")
	}
	if _, ok := Lookup("E42"); ok {
		t.Error("Lookup accepted an unknown ID")
	}
}

func TestE10ThroughputShape(t *testing.T) {
	tbl, err := E10Throughput()
	if err != nil {
		t.Fatal(err)
	}
	// One row per registered implementation plus two sharded rows.
	if len(tbl.Rows) < 9+2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	checkTyped(t, tbl)
	ids := map[string]bool{}
	for _, row := range tbl.Rows {
		ids[row[0].Text()] = true
	}
	for _, want := range []string{"fig4", "fig3", "constant", "moir", "unbounded", "sharded[fig4] K=1"} {
		if !ids[want] {
			t.Errorf("throughput table lacks %q", want)
		}
	}
}

// checkTyped checks that every row of tbl has a cell per column, that each
// label column holds text, and that each metric column holds numbers or
// absent cells.
func checkTyped(t *testing.T, tbl *Table) {
	t.Helper()
	if len(tbl.Units) != len(tbl.Header) {
		t.Fatalf("%s has %d units for %d columns", tbl.ID, len(tbl.Units), len(tbl.Header))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tbl.Header))
		}
		for i, c := range row {
			if _, isText := c.v.(string); isText != (tbl.Units[i] == Label) {
				t.Errorf("%s row %q: %s cell %v does not fit unit %s", tbl.ID, row[0].Text(), tbl.Header[i], c.v, tbl.Units[i])
			}
		}
	}
}

func TestE13LoadMatrixShape(t *testing.T) {
	// One profile, one scheme: one row per regime with typed latency
	// columns; a glob that matches no cell is an error.
	tbl, err := E13LoadMatrix(Options{Cell: "map/*+none/steady"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (one per regime)", len(tbl.Rows))
	}
	checkTyped(t, tbl)
	for _, row := range tbl.Rows {
		for _, c := range row[6:9] {
			if _, ok := c.Num(); !ok {
				t.Errorf("row %v lacks latency percentiles", row)
			}
		}
	}
	for _, glob := range []string{"no-such-structure/*", "map/*+no-such-scheme/*", "map/*/no-such-profile"} {
		if _, err := E13LoadMatrix(Options{Cell: glob}); err == nil {
			t.Errorf("want error for %q, which matches no cell", glob)
		}
	}
}

func TestE13TrafficFilterAndTuningPin(t *testing.T) {
	// The default sweep covers map and stack: a structure-agnostic glob
	// picks up both structures' baseline steady/none cells.
	tbl, err := E13LoadMatrix(Options{Cell: "*+none/steady"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (map + stack, 4 regimes)", len(tbl.Rows))
	}
	structs := map[string]bool{}
	for _, row := range tbl.Rows {
		label := row[0].Text()
		if !strings.HasSuffix(label, "+none/steady") {
			t.Errorf("row %q is not a baseline steady/none cell", label)
		}
		structs[strings.SplitN(label, "/", 2)[0]] = true
	}
	if !structs["map"] || !structs["stack"] {
		t.Errorf("default sweep covered %v, want map and stack", structs)
	}
}

func TestE13BackpressureProfile(t *testing.T) {
	// The poisson-shed profile runs behind a 4-deep admission queue: the
	// shed column must account for every non-admitted arrival (ops + shed =
	// offered is checked inside load; here the column must be a count and
	// the sound cells must stay clean).
	tbl, err := E13LoadMatrix(Options{Cell: "map/*+none/poisson-shed"})
	if err != nil {
		t.Fatal(err)
	}
	checkTyped(t, tbl)
	for _, row := range tbl.Rows {
		if _, ok := row[9].Num(); !ok {
			t.Errorf("row %q shed column %v is not a count", row[0].Text(), row[9])
		}
		if strings.HasPrefix(row[0].Text(), "map/llsc") && strings.Contains(row[10].Text(), "corrupt=true") {
			t.Errorf("row %q corrupted under llsc: %s", row[0].Text(), row[10].Text())
		}
	}
}

func TestE14ReadScalingShape(t *testing.T) {
	// One structure, one scheme: 4 regimes × 4 worker counts, each group
	// anchored by a 1.00x 1-worker row; globs matching no cell are rejected.
	tbl, err := E14ReadScaling(Options{Cell: "stack/*+none"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 16 {
		t.Fatalf("rows = %d, want 16 (4 regimes × 4 worker counts)", len(tbl.Rows))
	}
	checkTyped(t, tbl)
	for i, row := range tbl.Rows {
		label := row[0].Text()
		scale, ok := row[6].Num()
		if !ok {
			t.Errorf("row %q has no scale", label)
		}
		if i%4 == 0 && scale != 1 {
			t.Errorf("1-worker row %q scale = %v, want 1", label, scale)
		}
		if _, ok := row[4].Num(); !ok {
			t.Errorf("row %q has no ns/op", label)
		}
		if !strings.Contains(row[2].Text(), ", w") {
			t.Errorf("row %q workload %q does not encode the worker count", label, row[2].Text())
		}
		// The stack's peeks are wait-free under every regime and "none"
		// reclamation never recycles under this trickle, so even raw must
		// audit clean here — the read protocol is regime-independent.
		if strings.Contains(row[7].Text(), "corrupt=true") {
			t.Errorf("row %q corrupted under the read-mostly trickle: %q", label, row[7].Text())
		}
	}
	// The event flag has no read fast path, so it contributes no cells.
	for _, glob := range []string{"no-such-structure/*", "stack/*+no-such-scheme", "event/*"} {
		if _, err := E14ReadScaling(Options{Cell: glob}); err == nil {
			t.Errorf("want error for %q, which matches no cell", glob)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	tbl := &Table{ID: "EX", Title: "demo", Header: []string{"a"}}
	tbl.AddRow("1")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Table{tbl}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ID": "EX"`, `"Title": "demo"`, `"Rows"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
}

func TestUpperBoundExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive checks are slow in -short mode")
	}
	for _, run := range []struct {
		name string
		fn   func() (*Table, error)
	}{
		{"E3", E3Fig3},
		{"E4", E4Fig4},
		{"E5", E5Fig5},
		{"E6", E6Stack},
		{"E9", E9ConstantTime},
	} {
		t.Run(run.name, func(t *testing.T) {
			tbl, err := run.fn()
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Error("empty table")
			}
			var buf bytes.Buffer
			if err := tbl.Fprint(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}
