package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file is the benchmark regression harness: it re-runs the E10
// throughput experiment and diffs it against a committed snapshot
// (BENCH_baseline.json at the seed, BENCH_pr2.json after the slab/devirt
// work), so "did the hot paths get slower?" is one abalab invocation
// instead of archaeology.  cmd/abalab exposes it as -bench-compare.

// LoadSnapshot reads a JSON snapshot written by WriteJSON.  Both on-disk
// forms load: the Machine-stamped envelope (BENCH_pr10.json onward) and the
// bare table array of older snapshots, whose Machine comes back zero — the
// first byte of the payload distinguishes them.
func LoadSnapshot(path string) (Snapshot, error) {
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, fmt.Errorf("bench: %w", err)
	}
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(data, &snap.Tables); err != nil {
			return snap, fmt.Errorf("bench: %s: %w", path, err)
		}
		return snap, nil
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("bench: %s: %w", path, err)
	}
	return snap, nil
}

// LoadTables reads a JSON snapshot's tables (either on-disk form; see
// LoadSnapshot for the machine header).
func LoadTables(path string) ([]*Table, error) {
	snap, err := LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return snap.Tables, nil
}

// FindTable returns the table with the given experiment ID.
func FindTable(tables []*Table, id string) (*Table, bool) {
	for _, t := range tables {
		if t.ID == id {
			return t, true
		}
	}
	return nil, false
}

// CompareResult is one benchmark comparison row plus its verdict.
type CompareResult struct {
	// Table is the experiment the row came from ("E10" or "E11").
	Table string
	// Implementation and Workload identify the benchmark row.
	Implementation, Workload string
	// BaseNs and CurNs are ns/op in the snapshot and in the fresh run.
	BaseNs, CurNs float64
	// Speedup is BaseNs / CurNs: > 1 got faster, < 1 regressed.
	Speedup float64
	// BaseP50..CurP999 carry the latency percentiles for tables that have
	// them (E13); zero when either side lacks the column, so thresholds on
	// tail latency can skip old snapshots gracefully.
	BaseP50, CurP50, BaseP99, CurP99, BaseP999, CurP999 time.Duration
	// TailGain is BaseP999 / CurP999: > 1 the tail got faster, < 1 it
	// regressed.  0 when percentiles are unavailable on either side.
	TailGain float64
	// BaseScale and CurScale carry the read-scaling column for tables that
	// have one (E14): ops/s-per-worker relative to the same configuration at
	// one worker.  Zero when either side lacks the column, so snapshots from
	// before the read-scaling matrix diff without it.
	BaseScale, CurScale float64
	// BaseLimbo..CurMiss carry the reclamation-pressure columns for tables
	// that have them (E16): limbo occupancy at quiescence and alloc-miss
	// counts.  -1 when either side lacks the columns, so snapshots from
	// before the pressure matrix diff without them.
	BaseLimbo, CurLimbo, BaseMiss, CurMiss int64
	// BacklogDominated marks rows whose tail percentiles measure open-loop
	// backlog depth rather than service time (unthrottled arrival processes,
	// see E13); such rows are reported but never counted against the tail
	// regression gate.
	BacklogDominated bool
}

// CompareThroughput re-runs, at the full tier, every experiment whose
// snapshot table has an ns/op column (FreshThroughput) and diffs each fresh
// table against its snapshot table (DiffThroughput).  It returns one
// rendered comparison table per experiment plus the raw results for
// programmatic thresholds.
func CompareThroughput(snapshot []*Table) ([]*Table, []CompareResult, error) {
	fresh, err := FreshThroughput(snapshot)
	if err != nil {
		return nil, nil, err
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
// snapshot, so one fresh run serves several snapshots.  Snapshots that
// predate a matrix simply compare what they have, so old BENCH_*.json
// files stay usable.
func DiffThroughput(snapshot, fresh []*Table) ([]*Table, []CompareResult, error) {
	var tables []*Table
	var results []CompareResult
	for _, base := range snapshot {
		if column(base, "ns/op") < 0 {
			continue
		}
		cur, ok := FindTable(fresh, base.ID)
		if !ok {
			return nil, nil, fmt.Errorf("bench: no fresh %s run to diff the snapshot against", base.ID)
		}
		tbl, res, err := compareOne(base.ID, base, cur)
		if err != nil {
			return nil, nil, err
		}
		tables = append(tables, tbl)
		results = append(results, res...)
	}
	if len(tables) == 0 {
		return nil, nil, errNoThroughput
	}
	return tables, results, nil
}

// errNoThroughput rejects a snapshot with no throughput table to compare.
var errNoThroughput = errors.New("bench: snapshot has no comparable throughput table (no ns/op column)")

// compareOne diffs one fresh throughput run against its snapshot table.
// When both sides carry latency percentile columns (E13), the p999 diff is
// rendered next to the throughput diff and all three percentiles land in
// the CompareResults — a tail regression is a first-class verdict, not a
// detail hidden behind averages.  Snapshots that predate the latency
// columns just compare throughput, so old BENCH_*.json files stay usable.
func compareOne(id string, base, fresh *Table) (*Table, []CompareResult, error) {
	baseNs, err := nsPerOp(base)
	if err != nil {
		return nil, nil, err
	}
	curNs, err := nsPerOp(fresh)
	if err != nil {
		return nil, nil, err
	}
	baseP50, baseP99, baseP999 := index(base, "p50", time.ParseDuration), index(base, "p99", time.ParseDuration), index(base, "p999", time.ParseDuration)
	curP50, curP99, curP999 := index(fresh, "p50", time.ParseDuration), index(fresh, "p99", time.ParseDuration), index(fresh, "p999", time.ParseDuration)
	withTail := baseP999 != nil && curP999 != nil
	baseScale, curScale := index(base, "scale", parseRatio), index(fresh, "scale", parseRatio)
	withScale := baseScale != nil && curScale != nil
	baseLimbo, curLimbo := index(base, "limbo", parseCount), index(fresh, "limbo", parseCount)
	baseMiss, curMiss := index(base, "alloc-miss", parseCount), index(fresh, "alloc-miss", parseCount)
	withPressure := baseLimbo != nil && curLimbo != nil && baseMiss != nil && curMiss != nil
	outcomes := index(fresh, "outcome", func(s string) (string, error) { return s, nil })

	t := &Table{
		ID:     id + "-compare",
		Title:  fmt.Sprintf("benchmark regression check: fresh %s run vs committed snapshot", id),
		Header: []string{"implementation", "workload", "snapshot ns/op", "current ns/op", "speedup"},
	}
	if withTail {
		t.Header = append(t.Header, "snapshot p999", "current p999", "tail gain")
	}
	if withScale {
		t.Header = append(t.Header, "snapshot scale", "current scale")
	}
	if withPressure {
		t.Header = append(t.Header, "snapshot limbo", "current limbo", "snapshot miss", "current miss")
	}
	pad := func(cells []string, verdict string) []string {
		cells = append(cells, verdict)
		if withTail {
			cells = append(cells, "-", "-", verdict)
		}
		if withScale {
			cells = append(cells, "-", "-")
		}
		if withPressure {
			cells = append(cells, "-", "-", "-", "-")
		}
		return cells
	}
	var results []CompareResult
	var faster, slower, tailSlower int
	seen := make(map[string]bool, len(fresh.Rows))
	for _, row := range fresh.Rows {
		key := rowKey(row)
		seen[key] = true
		b, inBase := baseNs[key]
		c, inCur := curNs[key]
		if !inBase {
			t.AddRow(pad([]string{row[0], row[2], "-", fmt.Sprintf("%.1f", c)}, "new")...)
			continue
		}
		if !inCur {
			// A fully-shed open-loop cell admits zero ops and reports "-":
			// there is no throughput to compare, only the fact of the shed.
			t.AddRow(pad([]string{row[0], row[2], fmt.Sprintf("%.1f", b), "-"}, "no-admitted-ops")...)
			continue
		}
		r := CompareResult{
			Table:          id,
			Implementation: row[0],
			Workload:       row[2],
			BaseNs:         b,
			CurNs:          c,
			Speedup:        b / c,
			BaseP50:        baseP50[key],
			CurP50:         curP50[key],
			BaseP99:        baseP99[key],
			CurP99:         curP99[key],
			BaseP999:       baseP999[key],
			CurP999:        curP999[key],
			BaseScale:      baseScale[key],
			CurScale:       curScale[key],
			BaseLimbo:      -1,
			CurLimbo:       -1,
			BaseMiss:       -1,
			CurMiss:        -1,
		}
		r.BacklogDominated = strings.Contains(outcomes[key], "backlog-dominated")
		cells := []string{row[0], row[2],
			fmt.Sprintf("%.1f", b), fmt.Sprintf("%.1f", c), fmt.Sprintf("%.2fx", r.Speedup)}
		if r.BaseP999 > 0 && r.CurP999 > 0 {
			r.TailGain = float64(r.BaseP999) / float64(r.CurP999)
			if r.TailGain <= 0.5 && !r.BacklogDominated {
				tailSlower++
			}
		}
		if withTail {
			if r.TailGain > 0 {
				cells = append(cells, fmt.Sprintf("%v", r.BaseP999), fmt.Sprintf("%v", r.CurP999),
					fmt.Sprintf("%.2fx", r.TailGain))
			} else {
				cells = append(cells, "-", "-", "-")
			}
		}
		if withScale {
			for _, s := range []float64{r.BaseScale, r.CurScale} {
				if s > 0 {
					cells = append(cells, fmt.Sprintf("%.2fx", s))
				} else {
					cells = append(cells, "-")
				}
			}
		}
		if withPressure {
			read := func(m map[string]int64) (int64, string) {
				if v, ok := m[key]; ok {
					return v, fmt.Sprintf("%d", v)
				}
				return -1, "-"
			}
			var cell string
			r.BaseLimbo, cell = read(baseLimbo)
			cells = append(cells, cell)
			r.CurLimbo, cell = read(curLimbo)
			cells = append(cells, cell)
			r.BaseMiss, cell = read(baseMiss)
			cells = append(cells, cell)
			r.CurMiss, cell = read(curMiss)
			cells = append(cells, cell)
		}
		results = append(results, r)
		switch {
		case r.Speedup >= 1.05:
			faster++
		case r.Speedup <= 0.95:
			slower++
		}
		t.AddRow(cells...)
	}
	// Snapshot rows with no fresh counterpart would otherwise vanish
	// silently, shrinking the regression surface without a signal — render
	// them as "removed" (this also catches renamed implementations and
	// relabeled workloads).
	for _, row := range base.Rows {
		if !seen[rowKey(row)] {
			t.AddRow(pad([]string{row[0], row[2], fmt.Sprintf("%.1f", baseNs[rowKey(row)]), "-"}, "removed")...)
		}
	}
	t.AddNote("speedup = snapshot / current: above 1.00x is faster than the snapshot.")
	t.AddNote("%d rows ≥1.05x faster, %d rows ≤0.95x slower (runs are single-shot; treat ±5%% as noise).", faster, slower)
	if withTail {
		t.AddNote("tail gain = snapshot p999 / current p999: above 1.00x the tail tightened; %d rows regressed past 2x (tails are noisier than means — judge trends, not single cells; backlog-dominated open-loop rows are reported but not counted).", tailSlower)
	}
	if withScale {
		t.AddNote("scale is each run's own ops/s-per-worker vs its 1-worker cell — a within-run ratio, so it diffs meaningfully even when absolute ns/op drifts between machines.")
	}
	if withPressure {
		t.AddNote("limbo and miss diff the reclamation-pressure counters (retired-not-freed residue at quiescence, allocations that found the free list empty): a scheme change that parks more of the pool or starves more allocations shows up here before it shows up in ns/op.")
	}
	return t, results, nil
}

// rowKey identifies a throughput row across runs.
func rowKey(row []string) string { return row[0] + "|" + row[2] }

// column returns the index of t's header cell name, or -1 when t has no
// such column.
func column(t *Table, name string) int { return slices.Index(t.Header, name) }

// nsPerOp indexes a throughput table's ns/op column by its row key.  Unlike
// the optional columns it is strict: a missing column, a short row, or a
// foreign cell is an error.
func nsPerOp(t *Table) (map[string]float64, error) {
	col := column(t, "ns/op")
	if col < 0 {
		return nil, fmt.Errorf("bench: table %s has no ns/op column", t.ID)
	}
	out := make(map[string]float64, len(t.Rows))
	for _, row := range t.Rows {
		if len(row) <= col {
			return nil, fmt.Errorf("bench: table %s has a short row %v", t.ID, row)
		}
		if row[col] == "-" {
			continue // a fully-shed cell admitted nothing: no ns/op to index
		}
		ns, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return nil, fmt.Errorf("bench: table %s row %v: %w", t.ID, row, err)
		}
		out[rowKey(row)] = ns
	}
	return out, nil
}

// index parses the named column of t by row key, or returns nil when t has
// no such column — which is how a snapshot from before a column existed
// (latency, scale, pressure) opts out of that diff.  Rows too short to have
// the cell, and cells parse rejects ("-" or a foreign format), are left out.
func index[V any](t *Table, name string, parse func(string) (V, error)) map[string]V {
	col := column(t, name)
	if col < 0 {
		return nil
	}
	out := make(map[string]V, len(t.Rows))
	for _, row := range t.Rows {
		if len(row) <= col {
			continue
		}
		if v, err := parse(row[col]); err == nil {
			out[rowKey(row)] = v
		}
	}
	return out
}

// parseRatio parses a "1.23x"-formatted ratio cell (E14's scale column).
func parseRatio(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
}

// parseCount parses an integer counter cell (E16's limbo and alloc-miss).
func parseCount(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
