package bench

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// This file is the benchmark regression check behind abalab's
// -bench-compare: it re-runs every experiment whose snapshot table has an
// ns/op column (E10–E17) and diffs each fresh table against the snapshot's,
// row by row, over the columns in diffs.

// FindTable returns the table with the given experiment ID.
func FindTable(tables []*Table, id string) (*Table, bool) {
	for _, t := range tables {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// CompareThroughput re-runs, at the full tier, every experiment whose
// snapshot table has an ns/op column (FreshThroughput) and diffs each fresh
// table against its snapshot table (DiffThroughput), returning one
// comparison table per experiment.
func CompareThroughput(snapshot []*Table) ([]*Table, error) {
	fresh, err := FreshThroughput(snapshot)
	if err != nil {
		return nil, err
	}
	return DiffThroughput(snapshot, fresh)
}

// FreshThroughput re-runs, at the full tier, every experiment whose
// snapshot table has an ns/op column — E10 (base objects) through E17 in
// the committed snapshots — and returns the fresh tables in snapshot order.
func FreshThroughput(snapshot []*Table) ([]*Table, error) {
	var fresh []*Table
	for _, base := range snapshot {
		if column(base, "ns/op") < 0 {
			continue
		}
		exp, ok := Lookup(base.ID)
		if !ok {
			return nil, fmt.Errorf("bench: snapshot table %s names no experiment", base.ID)
		}
		t, err := exp.Run(Options{})
		if err != nil {
			return nil, err
		}
		fresh = append(fresh, t)
	}
	if len(fresh) == 0 {
		return nil, errNoThroughput
	}
	return fresh, nil
}

// DiffThroughput diffs every snapshot table that has an ns/op column
// against the fresh table of the same experiment, matched on
// implementation + workload.  fresh may carry more experiments than the
// snapshot, so one fresh run serves several snapshots.
func DiffThroughput(snapshot, fresh []*Table) ([]*Table, error) {
	var tables []*Table
	for _, base := range snapshot {
		if column(base, "ns/op") < 0 {
			continue
		}
		cur, ok := FindTable(fresh, base.ID)
		if !ok {
			return nil, fmt.Errorf("bench: no fresh %s run to diff the snapshot against", base.ID)
		}
		tbl, err := compareOne(base, cur)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	if len(tables) == 0 {
		return nil, errNoThroughput
	}
	return tables, nil
}

// errNoThroughput rejects a snapshot with no throughput table to compare.
var errNoThroughput = errors.New("bench: snapshot has no comparable throughput table (no ns/op column)")

// diff is one column -bench-compare diffs: a comparison row shows the
// snapshot's cell and the current one under "snapshot <name>" and
// "current <name>", then, when gain names a column, their snapshot/current
// ratio.  A column is diffed when both tables have it, so a snapshot from
// before the column existed compares what it has.
type diff struct {
	col, name, gain string
}

// diffs lists the diffed columns in print order: throughput (every
// comparison), E13's p999 tail, E14's scale, and E16's pressure counters.
var diffs = []diff{
	{"ns/op", "ns/op", "speedup"},
	{"p999", "p999", "tail gain"},
	{"scale", "scale", ""},
	{"limbo", "limbo", ""},
	{"alloc-miss", "miss", ""},
}

// compareOne diffs one fresh run against its snapshot table.  A row with
// no counterpart on the other side is "new" or "removed" (this also
// catches renamed implementations and relabeled workloads), and a row with
// no ns/op on either side is "no-admitted-ops" (a fully shed open-loop
// cell): the verdict stands in every gain column.  Rows tagged
// backlog-dominated are unthrottled open loops whose tails measure backlog
// depth, not service time, so they are reported but never counted against
// the tail gate.
func compareOne(base, fresh *Table) (*Table, error) {
	for _, tbl := range []*Table{base, fresh} {
		if err := diffable(tbl); err != nil {
			return nil, err
		}
	}
	t := &Table{
		ID:     base.ID + "-compare",
		Title:  fmt.Sprintf("benchmark regression check: fresh %s run vs committed snapshot", base.ID),
		Header: []string{"implementation", "workload"},
		Units:  []Unit{Label, Label},
	}
	type diffed struct {
		diff
		b, c int // the column in base and in fresh
	}
	var cols []diffed
	for _, d := range diffs {
		b, c := column(base, d.col), column(fresh, d.col)
		if b < 0 || c < 0 {
			continue
		}
		cols = append(cols, diffed{d, b, c})
		t.Header = append(t.Header, "snapshot "+d.name, "current "+d.name)
		t.Units = append(t.Units, fresh.unit(c), fresh.unit(c))
		if d.gain != "" {
			t.Header = append(t.Header, d.gain)
			t.Units = append(t.Units, Ratio)
		}
	}
	outcome := column(fresh, "outcome")
	var faster, slower, tailSlower int
	// addRow diffs snapshot row b against current row c under key's labels;
	// a row missing on one side is a row of absent cells.
	addRow := func(key, b, c []Cell, verdict string) {
		_, bAdmitted := b[cols[0].b].Num()
		_, cAdmitted := c[cols[0].c].Num()
		if verdict == "" && !(bAdmitted && cAdmitted) {
			verdict = "no-admitted-ops"
		}
		backlog := outcome >= 0 && strings.Contains(c[outcome].Text(), "backlog-dominated")
		cells := []Cell{key[0], key[2]}
		for _, d := range cols {
			bc, cc := b[d.b], c[d.c]
			cells = append(cells, bc, cc)
			if d.gain == "" {
				continue
			}
			if verdict != "" {
				cells = append(cells, Cell{verdict})
				continue
			}
			bv, _ := bc.Num()
			cv, _ := cc.Num()
			if bv <= 0 || cv <= 0 {
				cells = append(cells, Cell{})
				continue
			}
			gain := bv / cv
			cells = append(cells, Cell{gain})
			switch {
			case d.col == "ns/op" && gain >= 1.05:
				faster++
			case d.col == "ns/op" && gain <= 0.95:
				slower++
			case d.col == "p999" && gain <= 0.5 && !backlog:
				tailSlower++
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	baseRows := make(map[string][]Cell, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[rowKey(r)] = r
	}
	seen := make(map[string]bool, len(fresh.Rows))
	for _, c := range fresh.Rows {
		seen[rowKey(c)] = true
		if b, ok := baseRows[rowKey(c)]; ok {
			addRow(c, b, c, "")
		} else {
			addRow(c, make([]Cell, len(base.Header)), c, "new")
		}
	}
	for _, b := range base.Rows {
		if !seen[rowKey(b)] {
			addRow(b, b, make([]Cell, len(fresh.Header)), "removed")
		}
	}
	t.AddNote("speedup = snapshot / current: above 1.00x is faster than the snapshot.")
	t.AddNote("%d rows ≥1.05x faster, %d rows ≤0.95x slower (runs are single-shot; treat ±5%% as noise).", faster, slower)
	for _, d := range cols {
		switch d.col {
		case "p999":
			t.AddNote("tail gain = snapshot p999 / current p999: above 1.00x the tail tightened; %d rows regressed past 2x (tails are noisier than means — judge trends, not single cells; backlog-dominated open-loop rows are reported but not counted).", tailSlower)
		case "scale":
			t.AddNote("scale is each run's own ops/s-per-worker vs its 1-worker cell — a within-run ratio, so it diffs meaningfully even when absolute ns/op drifts between machines.")
		case "limbo":
			t.AddNote("limbo and miss diff the reclamation-pressure counters (retired-not-freed residue at quiescence, allocations that found the free list empty): a scheme change that parks more of the pool or starves more allocations shows up here before it shows up in ns/op.")
		}
	}
	return t, nil
}

// diffable checks that t can be diffed: it has an ns/op column, every row
// has a cell per column, and no diffed column holds text.
func diffable(t *Table) error {
	if column(t, "ns/op") < 0 {
		return fmt.Errorf("bench: table %s has no ns/op column", t.ID)
	}
	for _, r := range t.Rows {
		if len(r) != len(t.Header) {
			return fmt.Errorf("bench: table %s has a %d-cell row under %d columns", t.ID, len(r), len(t.Header))
		}
		for _, d := range diffs {
			if col := column(t, d.col); col >= 0 {
				if text, ok := r[col].v.(string); ok {
					return fmt.Errorf("bench: table %s row %s: %s cell %q is not a number", t.ID, rowKey(r), d.col, text)
				}
			}
		}
	}
	return nil
}

// rowKey identifies a throughput row across runs.
func rowKey(r []Cell) string { return r[0].Text() + "|" + r[2].Text() }

// column returns the index of t's header cell name, or -1 when t has no
// such column.
func column(t *Table, name string) int { return slices.Index(t.Header, name) }
