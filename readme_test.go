package abadetect

import (
	"os"
	"strings"
	"testing"

	"abadetect/internal/bench"
	"abadetect/internal/registry"
)

// readmeTable returns the rows of the README table under header, each row
// as its trimmed cells.
func readmeTable(t *testing.T, header string) [][]string {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	at := strings.Index(text, header)
	if at < 0 {
		t.Fatalf("README has no table header %q", header)
	}
	var rows [][]string
	for _, line := range strings.Split(text[at:], "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// TestREADMERegistryTable checks that README's implementation registry
// table, which calls itself exactly `abalab -list`, holds one row per
// registry entry, in registry order, with the entry's kind, m(n), t(n),
// bounded and correct flags and theorem.
func TestREADMERegistryTable(t *testing.T) {
	rows := readmeTable(t, "| id | kind | m(n) | t(n) | bounded | correct | theorem |")
	yesNo := func(b bool, no string) string {
		if b {
			return "yes"
		}
		return no
	}
	all := registry.All()
	for i, im := range all {
		want := []string{"`" + im.ID + "`", string(im.Kind), im.Space, im.Steps,
			yesNo(im.Bounded, "no"), yesNo(im.Correct, "**no (foil)**"), im.Theorem}
		if i >= len(rows) {
			t.Errorf("README registry table has no row for %s: want %q", im.ID, "| "+strings.Join(want, " | ")+" |")
			continue
		}
		if got := rows[i]; strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Errorf("README registry row %d = %q, want %q", i+1, got, want)
		}
	}
	if len(rows) > len(all) {
		t.Errorf("README registry table has %d rows, the registry %d entries", len(rows), len(all))
	}
}

// TestREADMEExperimentIndex checks that README's experiment index holds one
// row per experiment, in `abalab -list` order, each naming the experiment's
// ID and starting with its title (a row may add a cell example after it).
func TestREADMEExperimentIndex(t *testing.T) {
	rows := readmeTable(t, "| ID | reproduces |")
	exps := bench.Experiments()
	for i, e := range exps {
		if i >= len(rows) {
			t.Errorf("README experiment index has no row for %s: want %q", e.ID, "| "+e.ID+" | "+e.Title+" |")
			continue
		}
		if got := rows[i]; len(got) != 2 || got[0] != e.ID || !strings.HasPrefix(got[1], e.Title) {
			t.Errorf("README experiment row %d = %q, want %s starting %q", i+1, got, e.ID, e.Title)
		}
	}
	if len(rows) > len(exps) {
		t.Errorf("README experiment index has %d rows, the suite %d experiments", len(rows), len(exps))
	}
}
