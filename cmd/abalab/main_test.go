package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"slices"
	"strings"
	"testing"

	"abadetect/internal/bench"
	"abadetect/internal/load"
	"abadetect/internal/registry"
)

// table is one table of abalab's -json output.
type table struct {
	ID     string
	Header []string
	Rows   [][]string
}

// runJSON runs abalab with args plus -json and decodes the Tables array out
// of the machine-header envelope every -json table output carries
// (bench.WriteJSON).
func runJSON(t *testing.T, args ...string) []table {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Tables json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("-json output is not a snapshot envelope: %v", err)
	}
	if snap.Tables == nil {
		t.Fatalf("-json envelope has no Tables: %s", buf.Bytes())
	}
	var tables []table
	if err := json.Unmarshal(snap.Tables, &tables); err != nil {
		t.Fatalf("snapshot Tables do not decode: %v", err)
	}
	return tables
}

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"} {
		if !strings.Contains(out, id) {
			t.Errorf("listing lacks experiment %s", id)
		}
	}
	if !strings.Contains(out, "reclamation schemes") {
		t.Error("listing lacks the reclamation-scheme section")
	}
	if !strings.Contains(out, "load profiles") {
		t.Error("listing lacks the load-profile section")
	}
	for _, p := range load.Profiles() {
		if !strings.Contains(out, p.ID) {
			t.Errorf("listing lacks load profile %s", p.ID)
		}
	}
	// Every registered implementation appears in the listing.
	for _, id := range registry.IDs() {
		if !strings.Contains(out, id) {
			t.Errorf("listing lacks implementation %s", id)
		}
	}
	// The guard matrix is listed too.
	for _, spec := range registry.GuardSpecs(false) {
		if !strings.Contains(out, spec.String()) {
			t.Errorf("listing lacks guard spec %s", spec)
		}
	}
}

func TestListJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var index struct {
		Experiments     []struct{ ID string }
		Implementations []struct{ ID string }
	}
	if err := json.Unmarshal(buf.Bytes(), &index); err != nil {
		t.Fatalf("-list -json is not valid JSON: %v", err)
	}
	if len(index.Experiments) != len(bench.Experiments()) || len(index.Implementations) != len(registry.IDs()) {
		t.Errorf("index has %d experiments and %d implementations",
			len(index.Experiments), len(index.Implementations))
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "time-space trade-off") {
		t.Errorf("E2 output missing title:\n%s", out)
	}
	if !strings.Contains(out, "fig3 (1 CAS)") {
		t.Errorf("E2 output missing rows:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E42"}, &buf); err == nil {
		t.Error("want error for unknown experiment")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nonsense"}, &buf); err == nil {
		t.Error("want error for unknown flag")
	}
}

func TestImplFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-impl", "fig4", "-n", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Theorem 3 (Figure 4)", "n+1 registers (= 5 at n=4)", "m=5 (5 registers + 0 CAS)", "throughput probe"} {
		if !strings.Contains(out, want) {
			t.Errorf("-impl fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestImplAllCoversRegistry(t *testing.T) {
	tables := runJSON(t, "-impl", "all", "-n", "4")
	seen := map[string]bool{}
	for _, tbl := range tables {
		seen[tbl.ID] = true
	}
	for _, id := range registry.IDs() {
		if !seen[id] {
			t.Errorf("-impl all lacks %s", id)
		}
	}
}

func TestImplUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-impl", "no-such-impl"}, &buf); err == nil {
		t.Error("want error for unknown implementation")
	}
}

func TestBenchCompareMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "no-such-snapshot.json"}, &buf); err == nil {
		t.Error("want error for missing snapshot file")
	}
}

func TestJSONExperiment(t *testing.T) {
	tables := runJSON(t, "-run", "E2")
	if len(tables) != 1 || tables[0].ID != "E2" || len(tables[0].Rows) == 0 {
		t.Errorf("unexpected JSON shape: %+v", tables)
	}
}

// retiredSuffix matches the label suffix of an E13 row tuned with the
// removed elimination, flat-combining, and local-cache knobs
// ("+elim2+cache16", "+fc+cache16"); snapshots from PR6 on still carry
// those rows, and a fresh run no longer produces them.
var retiredSuffix = regexp.MustCompile(`(\+(elim\d+|fc|cache\d+))+$`)

// retiredRow reports whether a comparison row may legitimately be
// "removed": only an E13 row carrying a retired tuning suffix.
func retiredRow(tableID, key string) bool {
	return tableID == "E13-compare" && retiredSuffix.MatchString(key)
}

// pr9Row reports whether a row key names a cell that postdates the pre-PR9
// snapshots: registering the epoch:auto reclaimer expanded every
// registry-driven matrix with new scheme cells.
func pr9Row(key string) bool { return strings.Contains(key, "epoch:auto") }

// pr6Row reports whether an E13 row key names a cell that postdates the PR5
// snapshot: one of the backpressure profiles, or a stack traffic cell.
func pr6Row(key string) bool {
	for _, marker := range []string{"/poisson-shed", "/burst-block"} {
		if strings.Contains(key, marker) {
			return true
		}
	}
	return strings.HasPrefix(key, "stack/")
}

// compareSnapshot runs -bench-compare against a committed snapshot and
// checks that the comparison has exactly the tables wantIDs, each with rows,
// and that every row lines up with the snapshot: "new" only for a cell that
// postdates it (postdates(tableID, key)), "removed" only for a retired tuned
// variant, and only when withRetired says the snapshot carries them — in
// which case at least one must be reported.
func compareSnapshot(t *testing.T, name string, wantIDs []string, withRetired bool, postdates func(tableID, key string) bool) []table {
	t.Helper()
	tables := runJSON(t, "-bench-compare", "../../"+name)
	if len(tables) != len(wantIDs) {
		t.Fatalf("comparison has %d tables, want %d", len(tables), len(wantIDs))
	}
	retired := 0
	for i, tbl := range tables {
		if tbl.ID != wantIDs[i] {
			t.Fatalf("table %d is %q, want %q", i, tbl.ID, wantIDs[i])
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			switch {
			case row[4] == "removed" && withRetired && retiredRow(tbl.ID, row[0]):
				retired++
			case row[4] == "removed", row[4] == "new" && !postdates(tbl.ID, row[0]):
				t.Errorf("%s row %v does not line up with %s", tbl.ID, row, name)
			}
		}
	}
	if withRetired && retired == 0 {
		t.Errorf("no retired tuned row reported as removed; %s carries them", name)
	}
	return tables
}

// wantTail checks that the header of comparison table id ends with want,
// the columns compare adds after the throughput diff.
func wantTail(t *testing.T, tables []table, id string, want ...string) {
	t.Helper()
	for _, tbl := range tables {
		if tbl.ID == id && !slices.Equal(tbl.Header[max(len(tbl.Header)-len(want), 0):], want) {
			t.Errorf("%s header %v does not end with %v", id, tbl.Header, want)
		}
	}
}

func TestBenchCompare(t *testing.T) {
	// The committed PR2 snapshot must be loadable and comparable: every E10
	// row of the snapshot reappears in a fresh run with a parsed speedup.
	tables := compareSnapshot(t, "BENCH_pr2.json", []string{"E10-compare"}, false,
		func(_, _ string) bool { return false })
	for _, row := range tables[0].Rows {
		if len(row) != 5 {
			t.Errorf("comparison row %v has %d cells, want 5", row, len(row))
		}
	}
}

// mapRow reports whether a row postdates the PR3 and PR4 snapshots: the map
// structure came later, and so did the epoch:auto cells.
func mapRow(_, key string) bool { return strings.HasPrefix(key, "map/") || pr9Row(key) }

func TestBenchComparePR3CoversApps(t *testing.T) {
	// The PR3 snapshot carries both throughput tables, so the comparison
	// must too — E10 for base objects and E11 for the application matrix.
	compareSnapshot(t, "BENCH_pr3.json", []string{"E10-compare", "E11-compare"}, false, mapRow)
}

func TestBenchComparePR4CoversReclaim(t *testing.T) {
	// The PR4 snapshot carries all three throughput tables; the comparison
	// must diff E10, E11, and the new E12 reclamation matrix, and every row
	// key must line up with a fresh run (no renames, no lost cells).
	compareSnapshot(t, "BENCH_pr4.json", []string{"E10-compare", "E11-compare", "E12-compare"}, false, mapRow)
}

func TestBenchComparePR5CoversTraffic(t *testing.T) {
	// The PR5 snapshot carries all four throughput tables — E10 base
	// objects, E11 applications (map included), E12 reclamation, and the
	// E13 traffic matrix — and every pre-existing row key must line up with
	// a fresh run.  E13 rows that postdate the snapshot (fast-path
	// variants, backpressure profiles, stack cells) are legitimately "new";
	// nothing may be "removed".
	compareSnapshot(t, "BENCH_pr5.json", []string{"E10-compare", "E11-compare", "E12-compare", "E13-compare"}, false,
		func(id, key string) bool { return pr9Row(key) || id == "E13-compare" && pr6Row(key) })
}

func TestBenchComparePR6CoversTraffic(t *testing.T) {
	// The PR6 snapshot was taken after the tuned variants, backpressure
	// profiles, and stack cells landed, so a fresh run must line up with it
	// exactly: no "new" rows, and no "removed" rows except the retired
	// tuned variants.  It also carries the p999 column, so the E13
	// comparison must grow the tail-gain columns.
	tables := compareSnapshot(t, "BENCH_pr6.json", []string{"E10-compare", "E11-compare", "E12-compare", "E13-compare"}, true,
		func(_, key string) bool { return pr9Row(key) })
	if e13 := tables[3]; len(e13.Header) != 8 {
		t.Fatalf("E13-compare header %v lacks the tail columns", e13.Header)
	}
	wantTail(t, tables, "E13-compare", "snapshot p999", "current p999", "tail gain")
}

func TestBenchComparePR7CoversReadScaling(t *testing.T) {
	// The PR7 snapshot was taken after the wait-free read paths and the E14
	// read-scaling matrix landed, so a fresh run must produce all five
	// comparison tables and line up with the snapshot exactly, retired tuned
	// variants aside — and the E14 diff must carry the scale columns
	// alongside the throughput diff.
	tables := compareSnapshot(t, "BENCH_pr7.json", []string{"E10-compare", "E11-compare", "E12-compare", "E13-compare", "E14-compare"}, true,
		func(_, key string) bool { return pr9Row(key) })
	wantTail(t, tables, "E14-compare", "snapshot scale", "current scale")
}

func TestImplAllAtNOne(t *testing.T) {
	// n=1 is a supported registry point; the structure probes must degrade
	// (the event probe clamps to a signaler + poller) instead of failing
	// the whole report.
	var buf bytes.Buffer
	if err := run([]string{"-impl", "all", "-n", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"stack", "queue", "event", "map"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("-impl all -n 1 report lacks %s", id)
		}
	}
}

func TestBenchPR8SnapshotCarriesGrowthMatrix(t *testing.T) {
	// The PR8 snapshot is the first to carry E15.  A full -bench-compare
	// against it re-runs every throughput experiment including the
	// multi-minute 1M-key growth tier, so CI does that report-only; here we
	// pin the committed snapshot's shape instead — all six throughput tables
	// present, and the E15 table carrying the growth columns the comparison
	// keys on — so a regenerated snapshot can't silently drop the matrix.
	snapshot, err := bench.LoadTables("../../BENCH_pr8.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E10", "E11", "E12", "E13", "E14", "E15"} {
		if _, ok := bench.FindTable(snapshot, id); !ok {
			t.Errorf("BENCH_pr8.json lacks the %s table", id)
		}
	}
	e15, _ := bench.FindTable(snapshot, "E15")
	if e15 == nil {
		return
	}
	for _, col := range []string{"ns/op", "p999", "splits", "appends", "resize-stalls", "outcome"} {
		found := false
		for _, h := range e15.Header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Errorf("E15 snapshot lacks the %s column", col)
		}
	}
	// 10k tier: 4 regimes × 3 schemes; 100k tier: 2 × 2; 1M tier: 1 × 2.
	if len(e15.Rows) != 18 {
		t.Errorf("E15 snapshot has %d rows, want 18", len(e15.Rows))
	}
	for _, row := range e15.Rows {
		outcome := row[len(row)-1]
		if !strings.HasPrefix(row[0], "map/raw") && strings.Contains(outcome, "corrupt=true") {
			t.Errorf("snapshot sound cell %s corrupted: %s", row[0], outcome)
		}
	}
}

func TestBenchPR9SnapshotCarriesPressureMatrix(t *testing.T) {
	// The PR9 snapshot is the first to carry E16.  As with PR8, the full
	// -bench-compare re-run happens report-only in CI; here we pin the
	// committed snapshot's shape — all seven throughput tables present, the
	// E16 table carrying the pressure columns the comparison keys on, and
	// the headline contrast recorded: the lazy fixed cadence starves
	// allocations on the write-leaning cells while epoch:auto does not.
	snapshot, err := bench.LoadTables("../../BENCH_pr9.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E10", "E11", "E12", "E13", "E14", "E15", "E16"} {
		if _, ok := bench.FindTable(snapshot, id); !ok {
			t.Errorf("BENCH_pr9.json lacks the %s table", id)
		}
	}
	e16, _ := bench.FindTable(snapshot, "E16")
	if e16 == nil {
		return
	}
	cols := map[string]int{}
	for i, h := range e16.Header {
		cols[h] = i
	}
	for _, col := range []string{"ns/op", "p999", "limbo", "alloc-miss", "scans", "skips", "batches", "tune", "outcome"} {
		if _, ok := cols[col]; !ok {
			t.Errorf("E16 snapshot lacks the %s column", col)
		}
	}
	// stack runs write-lean only (5 schemes); the map runs both profiles.
	if len(e16.Rows) != 15 {
		t.Errorf("E16 snapshot has %d rows, want 15", len(e16.Rows))
	}
	miss := map[string]string{}
	for _, row := range e16.Rows {
		if strings.Contains(row[cols["outcome"]], "corrupt=true") {
			t.Errorf("snapshot cell %s corrupted under sound guards: %s", row[0], row[cols["outcome"]])
		}
		miss[row[0]] = row[cols["alloc-miss"]]
	}
	for _, structID := range []string{"stack", "map"} {
		if miss[structID+"/epoch:64/write-lean"] == "0" {
			t.Errorf("%s: snapshot's lazy-cadence foil recorded no alloc-misses", structID)
		}
		if got := miss[structID+"/epoch:auto/write-lean"]; got != "0" {
			t.Errorf("%s: snapshot records %s epoch:auto alloc-misses, want 0", structID, got)
		}
	}
}

func TestMatrixRun(t *testing.T) {
	// -run E<k> [-cell GLOB] [-tier smoke|full] is the one entry point to the
	// E11–E17 matrices.  Each case runs a cheap slice and checks its row
	// count, its labels, and the matrix's own columns.
	for _, tc := range []struct {
		name  string
		args  []string
		rows  int // 0: check only that there are rows
		label func(string) bool
		cols  []string
		check func(t *testing.T, rows [][]string)
	}{
		{
			name: "E11", args: []string{"-run", "E11"},
			label: func(string) bool { return true },
			check: func(t *testing.T, rows [][]string) {
				// Every structure runs over every guard spec in the registry.
				seen := map[string]bool{}
				for _, row := range rows {
					seen[row[0]] = true
				}
				for _, im := range registry.Structures() {
					for _, spec := range registry.GuardSpecs(im.ID != "event") {
						if key := im.ID + "/" + spec.String(); !seen[key] {
							t.Errorf("matrix lacks %s", key)
						}
					}
				}
			},
		},
		{
			name: "E11-queue", args: []string{"-run", "E11", "-cell", "queue/*"},
			rows:  len(registry.GuardSpecs(true)),
			label: func(l string) bool { return strings.HasPrefix(l, "queue/") },
		},
		{
			name: "E12-event-none", args: []string{"-run", "E12", "-cell", "event/*+none"},
			rows:  4, // 4 regimes × 1 scheme
			label: func(l string) bool { return strings.HasPrefix(l, "event/") && strings.HasSuffix(l, "+none") },
		},
		{
			name: "E13-map-none-steady", args: []string{"-run", "E13", "-cell", "map/*+none/steady"},
			rows:  4, // 4 regimes × 1 scheme × 1 profile
			label: func(l string) bool { return strings.HasPrefix(l, "map/") && strings.HasSuffix(l, "+none/steady") },
			cols:  []string{"p50", "p99", "p999", "shed"},
		},
		{
			name: "E14-stack-none", args: []string{"-run", "E14", "-cell", "stack/*+none"},
			rows:  16, // 4 regimes × 1 scheme × 4 worker counts
			label: func(l string) bool { return strings.HasPrefix(l, "stack/") && strings.HasSuffix(l, "+none") },
			check: func(t *testing.T, rows [][]string) {
				for _, row := range rows {
					if !strings.HasSuffix(row[6], "x") {
						t.Errorf("row %q scale column %q is not a ratio", row[0], row[6])
					}
				}
			},
		},
		{
			// One cell of the 10k-key tier; TestE15SmokeTier pins the whole tier.
			name: "E15-smoke", args: []string{"-run", "E15", "-tier", "smoke", "-cell", "map/tag16+hp"},
			rows:  1,
			label: func(l string) bool { return l == "map/tag16+hp" },
			cols:  []string{"splits", "appends", "resize-stalls"},
		},
		{
			name: "E16-smoke", args: []string{"-run", "E16", "-tier", "smoke"},
			rows:  15, // stack × 5 schemes + map × 5 schemes × 2 profiles
			label: func(string) bool { return true },
			cols:  []string{"limbo", "alloc-miss", "scans", "skips", "batches", "tune"},
			check: func(t *testing.T, rows [][]string) {
				schemes := map[string]bool{}
				for _, row := range rows {
					schemes[strings.SplitN(row[0], "/", 3)[1]] = true
				}
				for _, s := range []string{"none", "hp", "epoch", "epoch:64", "epoch:auto"} {
					if !schemes[s] {
						t.Errorf("pressure matrix lacks scheme %q", s)
					}
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tables := runJSON(t, tc.args...)
			if len(tables) != 1 || tables[0].ID != tc.args[1] {
				t.Fatalf("unexpected JSON shape: %+v", tables)
			}
			rows := tables[0].Rows
			if len(rows) == 0 || (tc.rows > 0 && len(rows) != tc.rows) {
				t.Fatalf("%v gave %d rows, want %d", tc.args, len(rows), tc.rows)
			}
			for _, row := range rows {
				if !tc.label(row[0]) {
					t.Errorf("unexpected row label %q", row[0])
				}
			}
			for _, col := range tc.cols {
				if !slices.Contains(tables[0].Header, col) {
					t.Errorf("%s header lacks the %s column", tc.args[1], col)
				}
			}
			if tc.check != nil {
				tc.check(t, rows)
			}
		})
	}

	for _, tc := range []struct {
		name string
		args []string
		want string // a fragment of the error
	}{
		{"no-match", []string{"-run", "E11", "-cell", "no-such-structure/*"}, "E11: no cell matches"},
		{"cell-on-E4", []string{"-run", "E4", "-cell", "*"}, "only the E11–E17 matrices have cells"},
		{"cell-without-run", []string{"-cell", "queue/*"}, "add -run"},
		{"unknown-tier", []string{"-run", "E16", "-tier", "medium-rare"}, "-tier wants"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
			}
		})
	}
}
