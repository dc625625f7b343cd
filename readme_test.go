package abadetect

import (
	"os"
	"strings"
	"testing"

	"abadetect/internal/registry"
)

// TestREADMERegistryTable checks that README's implementation registry
// table, which calls itself exactly `abalab -list`, holds one row per
// registry entry, in registry order, with the entry's kind, m(n), t(n),
// bounded and correct flags and theorem.
func TestREADMERegistryTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| id | kind | m(n) | t(n) | bounded | correct | theorem |"
	text := string(raw)
	at := strings.Index(text, header)
	if at < 0 {
		t.Fatalf("README has no registry table header %q", header)
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
