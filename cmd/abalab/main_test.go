package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"abadetect/internal/bench"
	"abadetect/internal/load"
	"abadetect/internal/registry"
)

// unmarshalTables decodes the Tables array out of the machine-header
// envelope every -json table output now carries (bench.WriteJSON).
func unmarshalTables(t *testing.T, data []byte, into any) {
	t.Helper()
	var snap struct{ Tables json.RawMessage }
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-json output is not a snapshot envelope: %v", err)
	}
	if snap.Tables == nil {
		t.Fatalf("-json envelope has no Tables: %s", data)
	}
	if err := json.Unmarshal(snap.Tables, into); err != nil {
		t.Fatalf("snapshot Tables do not decode: %v", err)
	}
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
	var buf bytes.Buffer
	if err := run([]string{"-impl", "all", "-n", "4", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct{ ID string }
	unmarshalTables(t, buf.Bytes(), &tables)
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

func TestBenchCompare(t *testing.T) {
	// The committed PR2 snapshot must be loadable and comparable: every E10
	// row of the snapshot reappears in a fresh run with a parsed speedup.
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "../../BENCH_pr2.json", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E10-compare" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) == 0 {
		t.Error("comparison has no rows")
	}
	for _, row := range tables[0].Rows {
		if len(row) != 5 {
			t.Errorf("comparison row %v has %d cells, want 5", row, len(row))
		}
		if row[4] == "new" {
			t.Errorf("row %v missing from the committed snapshot", row)
		}
		if row[4] == "removed" {
			t.Errorf("snapshot row %v no longer produced by a fresh run", row)
		}
	}
}

func TestBenchCompareMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "no-such-snapshot.json"}, &buf); err == nil {
		t.Error("want error for missing snapshot file")
	}
}

func TestJSONExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "E2", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E2" || len(tables[0].Rows) == 0 {
		t.Errorf("unexpected JSON shape: %+v", tables)
	}
}

func TestAppMatrix(t *testing.T) {
	// The acceptance criterion of the guard refactor: -app runs every
	// structure over every protection regime in the registry matrix.
	var buf bytes.Buffer
	if err := run([]string{"-app", "all", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E11" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	rowFor := map[string]bool{}
	for _, row := range tables[0].Rows {
		rowFor[row[0]] = true
	}
	for _, im := range registry.Structures() {
		for _, spec := range registry.GuardSpecs(im.ID != "event") {
			key := im.ID + "/" + spec.String()
			if !rowFor[key] {
				t.Errorf("matrix lacks %s", key)
			}
		}
	}
}

func TestAppSingleStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "queue"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "queue/llsc:fig3") || strings.Contains(out, "stack/raw") {
		t.Errorf("-app queue output wrong:\n%s", out)
	}
}

func TestAppUnknownStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure")
	}
}

func TestBenchComparePR3CoversApps(t *testing.T) {
	// The PR3 snapshot carries both throughput tables, so the comparison
	// must too — E10 for base objects and E11 for the application matrix.
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "../../BENCH_pr3.json", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 2 || tables[0].ID != "E10-compare" || tables[1].ID != "E11-compare" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			// The map structure postdates the PR3 snapshot, so its rows are
			// legitimately "new"; anything else must line up.
			if row[4] == "new" && !strings.HasPrefix(row[0], "map/") && !pr9Row(row[0]) {
				t.Errorf("%s row %v missing from the committed snapshot", tbl.ID, row)
			}
			if row[4] == "removed" {
				t.Errorf("%s snapshot row %v no longer produced by a fresh run", tbl.ID, row)
			}
		}
	}
}

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

func TestBenchComparePR5CoversTraffic(t *testing.T) {
	// The PR5 snapshot carries all four throughput tables — E10 base
	// objects, E11 applications (map included), E12 reclamation, and the
	// E13 traffic matrix — and every pre-existing row key must line up with
	// a fresh run.  E13 rows that postdate the snapshot (fast-path
	// variants, backpressure profiles, stack cells) are legitimately "new";
	// nothing may be "removed".
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "../../BENCH_pr5.json", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	wantIDs := []string{"E10-compare", "E11-compare", "E12-compare", "E13-compare"}
	if len(tables) != len(wantIDs) {
		t.Fatalf("comparison has %d tables, want %d", len(tables), len(wantIDs))
	}
	for i, tbl := range tables {
		if tbl.ID != wantIDs[i] {
			t.Fatalf("table %d is %q, want %q", i, tbl.ID, wantIDs[i])
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if row[4] == "new" && !pr9Row(row[0]) && !(tbl.ID == "E13-compare" && pr6Row(row[0])) {
				t.Errorf("%s row %v did not match the committed snapshot", tbl.ID, row)
			}
			if row[4] == "removed" {
				t.Errorf("%s snapshot row %v no longer produced by a fresh run", tbl.ID, row)
			}
		}
	}
}

func TestBenchComparePR6CoversTraffic(t *testing.T) {
	// The PR6 snapshot was taken after the tuned variants, backpressure
	// profiles, and stack cells landed, so a fresh run must line up with it
	// exactly: no "new" rows, and no "removed" rows except the retired
	// tuned variants.  It also carries the p999 column, so the E13
	// comparison must grow the tail-gain columns.
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "../../BENCH_pr6.json", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	wantIDs := []string{"E10-compare", "E11-compare", "E12-compare", "E13-compare"}
	if len(tables) != len(wantIDs) {
		t.Fatalf("comparison has %d tables, want %d", len(tables), len(wantIDs))
	}
	retired := 0
	for i, tbl := range tables {
		if tbl.ID != wantIDs[i] {
			t.Fatalf("table %d is %q, want %q", i, tbl.ID, wantIDs[i])
		}
		for _, row := range tbl.Rows {
			if row[4] == "removed" && retiredRow(tbl.ID, row[0]) {
				retired++
				continue
			}
			if (row[4] == "new" && !pr9Row(row[0])) || row[4] == "removed" {
				t.Errorf("%s row %v does not line up with the PR6 snapshot", tbl.ID, row)
			}
		}
		if tbl.ID == "E13-compare" {
			want := []string{"snapshot p999", "current p999", "tail gain"}
			if len(tbl.Header) != 8 {
				t.Fatalf("E13-compare header %v lacks the tail columns", tbl.Header)
			}
			for j, name := range want {
				if tbl.Header[5+j] != name {
					t.Errorf("E13-compare header[%d] = %q, want %q", 5+j, tbl.Header[5+j], name)
				}
			}
		}
	}
	if retired == 0 {
		t.Error("no retired tuned row reported as removed; the PR6 snapshot carries them")
	}
}

func TestScaleMatrixFlag(t *testing.T) {
	// -scale runs E14; -reclaim narrows the scheme.  One structure and one
	// scheme keep the smoke test cheap: 4 regimes × 4 worker counts.
	var buf bytes.Buffer
	if err := run([]string{"-scale", "stack", "-reclaim", "none", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E14" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 16 { // stack × 4 regimes × 1 scheme × 4 worker counts
		t.Fatalf("stack/none matrix has %d rows, want 16", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "stack/") || !strings.HasSuffix(row[0], "+none") {
			t.Errorf("unexpected row key %q", row[0])
		}
		if !strings.HasSuffix(row[6], "x") {
			t.Errorf("row %q scale column %q is not a ratio", row[0], row[6])
		}
	}
	if err := run([]string{"-scale", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure filter")
	}
	if err := run([]string{"-scale", "stack", "-reclaim", "no-such-scheme"}, &buf); err == nil {
		t.Error("want error for unknown scheme filter")
	}
}

func TestBenchComparePR7CoversReadScaling(t *testing.T) {
	// The PR7 snapshot was taken after the wait-free read paths and the E14
	// read-scaling matrix landed, so a fresh run must produce all five
	// comparison tables and line up with the snapshot exactly, retired tuned
	// variants aside — and the E14 diff must carry the scale columns
	// alongside the throughput diff.
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "../../BENCH_pr7.json", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	wantIDs := []string{"E10-compare", "E11-compare", "E12-compare", "E13-compare", "E14-compare"}
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
			if row[4] == "removed" && retiredRow(tbl.ID, row[0]) {
				retired++
				continue
			}
			if (row[4] == "new" && !pr9Row(row[0])) || row[4] == "removed" {
				t.Errorf("%s row %v does not line up with the PR7 snapshot", tbl.ID, row)
			}
		}
		if tbl.ID == "E14-compare" {
			want := []string{"snapshot scale", "current scale"}
			if len(tbl.Header) < 7 {
				t.Fatalf("E14-compare header %v lacks the scale columns", tbl.Header)
			}
			for j, name := range want {
				if got := tbl.Header[len(tbl.Header)-2+j]; got != name {
					t.Errorf("E14-compare header tail[%d] = %q, want %q", j, got, name)
				}
			}
		}
	}
	if retired == 0 {
		t.Error("no retired tuned row reported as removed; the PR7 snapshot carries them")
	}
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

func TestLoadMatrixFlag(t *testing.T) {
	// -load runs E13; -reclaim and -app narrow the matrix.  One profile and
	// one scheme keep the smoke test cheap: 4 regimes worth of rows, each
	// carrying latency percentiles.
	var buf bytes.Buffer
	if err := run([]string{"-load", "steady", "-reclaim", "none", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E13" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 4 { // map × 4 regimes × 1 scheme × 1 profile
		t.Fatalf("steady/none matrix has %d rows, want 4", len(tables[0].Rows))
	}
	wantCols := []string{"p50", "p99", "p999", "shed"}
	for _, col := range wantCols {
		found := false
		for _, h := range tables[0].Header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Errorf("E13 header lacks the %s column", col)
		}
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "map/") || !strings.HasSuffix(row[0], "+none/steady") {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
	if err := run([]string{"-load", "no-such-profile"}, &buf); err == nil {
		t.Error("want error for unknown load profile")
	}
	if err := run([]string{"-load", "steady", "-app", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure filter")
	}
}

func TestLoadMatrixTuningFlags(t *testing.T) {
	// -seed replays the profile on a different RNG stream and still yields
	// every baseline cell.
	var buf bytes.Buffer
	if err := run([]string{"-load", "steady", "-reclaim", "none", "-app", "stack",
		"-seed", "42", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("seeded matrix has %d tables / %d rows, want 1 / 4", len(tables), len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "stack/") || !strings.HasSuffix(row[0], "+none/steady") {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
}

func TestReclaimMatrixFlag(t *testing.T) {
	// -reclaim runs E12; -app narrows the structure.  The event flag keeps
	// the smoke test cheap (no node pool, no contention).
	var buf bytes.Buffer
	if err := run([]string{"-reclaim", "none", "-app", "event", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E12" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 4 { // event × 4 regimes × 1 scheme
		t.Fatalf("event/none matrix has %d rows, want 4", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "event/") || !strings.HasSuffix(row[0], "+none") {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
	if err := run([]string{"-reclaim", "no-such-scheme"}, &buf); err == nil {
		t.Error("want error for unknown reclamation scheme")
	}
	if err := run([]string{"-reclaim", "hp", "-app", "no-such-structure"}, &buf); err == nil {
		t.Error("want error for unknown structure filter")
	}
}

func TestBenchComparePR4CoversReclaim(t *testing.T) {
	// The PR4 snapshot carries all three throughput tables; the comparison
	// must diff E10, E11, and the new E12 reclamation matrix, and every row
	// key must line up with a fresh run (no renames, no lost cells).
	var buf bytes.Buffer
	if err := run([]string{"-bench-compare", "../../BENCH_pr4.json", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 3 || tables[0].ID != "E10-compare" || tables[1].ID != "E11-compare" || tables[2].ID != "E12-compare" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			// Map rows postdate the PR4 snapshot (see the PR3 test); every
			// pre-existing cell must still line up.
			if row[4] == "new" && !strings.HasPrefix(row[0], "map/") && !pr9Row(row[0]) {
				t.Errorf("%s row %v missing from the committed snapshot", tbl.ID, row)
			}
			if row[4] == "removed" {
				t.Errorf("%s snapshot row %v no longer produced by a fresh run", tbl.ID, row)
			}
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

func TestGrowMatrixFlag(t *testing.T) {
	// -grow runs E15; -grow-keys caps the sweep to its smallest tier so the
	// smoke stays cheap.  A cap below the smallest tier must error rather
	// than silently produce an empty table.
	var buf bytes.Buffer
	if err := run([]string{"-grow", "-grow-keys", "10000", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E15" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	if len(tables[0].Rows) != 12 { // 4 regimes × 3 schemes, 10k tier only
		t.Fatalf("capped growth matrix has %d rows, want 12", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if !strings.HasPrefix(row[0], "map/") {
			t.Errorf("unexpected row key %q", row[0])
		}
	}
	if err := run([]string{"-grow", "-grow-keys", "5"}, &buf); err == nil {
		t.Error("want error for a cap below the smallest tier")
	}
}

func TestPressureMatrixFlag(t *testing.T) {
	// -pressure smoke runs E16 with trimmed per-cell ops; an unknown tier
	// must error rather than silently run the full matrix.
	var buf bytes.Buffer
	if err := run([]string{"-pressure", "smoke", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID     string
		Header []string
		Rows   [][]string
	}
	unmarshalTables(t, buf.Bytes(), &tables)
	if len(tables) != 1 || tables[0].ID != "E16" {
		t.Fatalf("unexpected JSON shape: %+v", tables)
	}
	for _, col := range []string{"limbo", "alloc-miss", "scans", "skips", "batches", "tune"} {
		if !strings.Contains(strings.Join(tables[0].Header, ","), col) {
			t.Errorf("pressure matrix lacks the %s column", col)
		}
	}
	schemes := map[string]bool{}
	for _, row := range tables[0].Rows {
		schemes[strings.SplitN(row[0], "/", 3)[1]] = true
	}
	for _, s := range []string{"none", "hp", "epoch", "epoch:64", "epoch:auto"} {
		if !schemes[s] {
			t.Errorf("pressure matrix lacks scheme %q", s)
		}
	}
	if err := run([]string{"-pressure", "medium-rare"}, &buf); err == nil {
		t.Error("want error for an unknown pressure tier")
	}
}
