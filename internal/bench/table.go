// Package bench is the experiment harness: one runner per experiment of
// README's Experiment index (E1–E17), each regenerating the table that
// corresponds to a paper claim — lower-bound witnesses, time-space
// products, step complexities, space footprints, domain growth, and
// application-level corruption — or a throughput, reclamation, traffic or
// tracing matrix.  cmd/abalab prints them all; bench_test.go at the
// repository root exposes them as testing.B benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is an experiment result: rows of typed cells under named columns.
type Table struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title describes the experiment and names the paper artifact.
	Title string
	// Header labels the columns.
	Header []string
	// Units types the columns, one per header cell.  A table without
	// Units holds labels only.
	Units []Unit `json:",omitempty"`
	// Rows holds the data, one cell per column.
	Rows [][]Cell
	// Notes are printed under the table.
	Notes []string
}

// Unit is a column's type: what its cells hold and how they print.
type Unit string

const (
	// Label cells hold text.
	Label Unit = "label"
	// Count cells hold an integer, printed %d.
	Count Unit = "count"
	// Ns cells hold nanoseconds per operation, printed %.1f.
	Ns Unit = "ns"
	// Rate cells hold millions of operations per second (Mops/s,
	// goodput), printed %.2f.
	Rate Unit = "rate"
	// Ratio cells hold a dimensionless ratio, printed %.2fx.
	Ratio Unit = "ratio"
	// Duration cells hold nanoseconds, printed as time.Duration text.
	Duration Unit = "duration"
)

// Cell is one table cell: a label's text, or a metric's value in its
// column's unit.  A metric may be absent (a fully shed cell has no ns/op):
// it prints "-" and is stored as JSON null.  A comparison's gain columns
// carry a verdict word where no ratio exists.
type Cell struct {
	v any // string, float64, or nil
}

// Num returns a metric cell's value; ok is false for a label or an absent
// metric.
func (c Cell) Num() (v float64, ok bool) {
	v, ok = c.v.(float64)
	return v, ok
}

// Text returns a label cell's text, or "" for a metric cell.
func (c Cell) Text() string {
	s, _ := c.v.(string)
	return s
}

// MarshalJSON stores a label as a JSON string, a metric as a JSON number,
// and an absent metric as null.
func (c Cell) MarshalJSON() ([]byte, error) { return json.Marshal(c.v) }

// UnmarshalJSON reads a cell MarshalJSON wrote.
func (c *Cell) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v.(type) {
	case nil, string, float64:
		c.v = v
		return nil
	}
	return fmt.Errorf("bench: cell %s is neither text, a number nor null", b)
}

// format renders c in unit u.
func (c Cell) format(u Unit) string {
	switch v := c.v.(type) {
	case string:
		return v
	case float64:
		switch u {
		case Count:
			return fmt.Sprintf("%d", int64(v))
		case Ns:
			return fmt.Sprintf("%.1f", v)
		case Rate:
			return fmt.Sprintf("%.2f", v)
		case Ratio:
			return fmt.Sprintf("%.2fx", v)
		case Duration:
			return time.Duration(v).String()
		}
		return fmt.Sprint(v) // a number under a label column
	}
	return "-"
}

// unit returns column col's unit.
func (t *Table) unit(col int) Unit {
	if col < len(t.Units) {
		return t.Units[col]
	}
	return Label
}

// AddRow appends a row built from its cells' values: a string is a label;
// an int, int64, float64, or time.Duration (in nanoseconds) is a metric in
// its column's unit; and nil is an absent metric.
func (t *Table) AddRow(values ...any) {
	t.Rows = append(t.Rows, row(values...))
}

// row builds one row's cells the way AddRow does.
func row(values ...any) []Cell {
	cells := make([]Cell, len(values))
	for i, v := range values {
		switch v := v.(type) {
		case nil, string, float64:
			cells[i] = Cell{v}
		case int:
			cells[i] = Cell{float64(v)}
		case int64:
			cells[i] = Cell{float64(v)}
		case time.Duration:
			cells[i] = Cell{float64(v)}
		default:
			panic(fmt.Sprintf("bench: cell %d is a %T, neither a label nor a metric", i, v))
		}
	}
	return cells
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	underline := make([]string, len(t.Header))
	for i, h := range t.Header {
		underline[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(underline, "\t"))
	for _, r := range t.Rows {
		text := make([]string, len(r))
		for i, c := range r {
			text[i] = c.format(t.unit(i))
		}
		fmt.Fprintln(tw, strings.Join(text, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FprintAll renders a sequence of tables.
func FprintAll(w io.Writer, tables []*Table) error {
	for _, t := range tables {
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// Machine identifies the host a benchmark snapshot was recorded on — the
// context every ns/op comparison silently assumes.  It is stamped on every
// snapshot WriteJSON emits and echoed by -bench-compare, so a diff across
// machines or toolchains announces itself instead of masquerading as a
// regression.
type Machine struct {
	// GoMaxProcs and NumCPU are the scheduler width and the host's logical
	// CPU count at recording time.
	GoMaxProcs, NumCPU int
	// GoVersion is the recording toolchain (runtime.Version()).
	GoVersion string
	// Commit is the VCS revision baked into the binary, or "unknown" for
	// uncommitted / non-VCS builds.
	Commit string
}

// CurrentMachine samples the recording host.
func CurrentMachine() Machine {
	m := Machine{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// String renders the header line -bench-compare prints.
func (m Machine) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d %s commit=%s", m.GoMaxProcs, m.NumCPU, m.GoVersion, m.Commit)
}

// Snapshot is the on-disk envelope of a BENCH_*.json file: the tables plus
// the machine header they were recorded on.  A snapshot recorded before
// machine headers existed carries a zero Machine.
type Snapshot struct {
	Machine Machine
	Tables  []*Table
}

// WriteJSON renders tables as an indented JSON envelope — the machine-
// readable form behind abalab -json and the BENCH_*.json snapshots — with
// the recording host's Machine header stamped on top.
func WriteJSON(w io.Writer, tables []*Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Snapshot{Machine: CurrentMachine(), Tables: tables})
}

// LoadSnapshot reads a snapshot written by WriteJSON.
func LoadSnapshot(path string) (Snapshot, error) {
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("bench: %s: %w", path, err)
	}
	return snap, nil
}
