// Command abalab runs the experiment suite of the reproduction — one
// experiment per paper artifact (E1-E17) — and reports on the registered
// implementations.  Experiments and implementations are both enumerated
// from their registries (internal/bench.Experiments, internal/registry), so
// this command never needs editing when either grows.
//
// Usage:
//
//	abalab                  # run every experiment
//	abalab -run E2          # run one experiment
//	abalab -run E11         # application matrix: every structure × guard
//	abalab -run E11 -cell 'queue/*'          # ... only the cells whose label matches the glob
//	abalab -run E12 -cell 'stack/*+hp'       # reclamation matrix: structure × regime × SMR
//	abalab -run E13 -cell 'map/*+none/steady'  # traffic matrix with latency percentiles
//	abalab -run E14 -cell 'stack/*+none'     # read-scaling matrix: wait-free reads × workers
//	abalab -run E15         # growth matrix: map growth 10k→1M keys under live traffic
//	abalab -run E15 -tier smoke   # ... the 10k-key tier only (CI smoke)
//	abalab -run E16 -tier smoke   # reclamation-pressure matrix at 2,000 ops per worker
//	abalab -run E17         # observability matrix: flight-recorder overhead, trace off/on
//	abalab -list            # list experiments and implementations
//	abalab -impl fig4 -n 8  # inspect one implementation at n processes
//	abalab -impl all -n 8   # ... or every implementation
//	abalab -serve :8080     # live metrics over a traced structure: /metrics, /debug/vars, /trace, /debug/pprof
//	abalab -trace-dump map  # run a deterministic ABA scenario and print its incident flight record
//	abalab -json ...        # any of the above, as machine-readable JSON
//
// A matrix cell's label is its rows' implementation column (e.g.
// map/tag16+hp/steady); in a -cell glob, * matches any run of characters,
// / included.
//
// Benchmark regression check: re-run every throughput experiment (E10–E17)
// a committed BENCH_*.json snapshot carries and diff the fresh tables
// against it, after echoing the snapshot's and the current host's machine
// headers (README's Experiment index lists the snapshots):
//
//	abalab -bench-compare BENCH_pr10.json
//	abalab -json > snapshot.json   # record a new snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"abadetect/internal/bench"
	"abadetect/internal/load"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abalab:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("abalab", flag.ContinueOnError)
	var (
		only     = fs.String("run", "", "run a single experiment (E1..E17)")
		cellGlob = fs.String("cell", "", "with -run on a matrix (E11..E17): run only the cells whose label matches this glob, e.g. 'map/tag16+hp/*' (* also matches /)")
		tier     = fs.String("tier", "full", "with -run: 'full', or 'smoke' for CI (E15's 10k-key tier only; E16/E17 at 2,000 ops per worker)")
		list     = fs.Bool("list", false, "list experiments and implementations, then exit")
		impl     = fs.String("impl", "", "inspect a registered implementation by ID (or 'all')")
		n        = fs.Int("n", 8, "process count for -impl")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
		compare  = fs.String("bench-compare", "", "diff fresh runs of every throughput table in a benchmark snapshot (e.g. BENCH_pr10.json) against it")
		serveAt  = fs.String("serve", "", "serve live metrics over a traced structure under background churn at this address (e.g. :8080): /metrics, /debug/vars, /trace, /debug/pprof")
		dump     = fs.String("trace-dump", "", "run a deterministic ABA scenario (stack, queue, map, map-grow, or 'all') under raw+none and pretty-print its incident flight record")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tier != "full" && *tier != "smoke" {
		return fmt.Errorf("-tier wants 'full' or 'smoke', got %q", *tier)
	}
	if *only == "" && (*cellGlob != "" || *tier != "full") {
		return fmt.Errorf("-cell and -tier select within one experiment: add -run E<k>")
	}

	emit := func(tables []*bench.Table) error {
		if *asJSON {
			return bench.WriteJSON(out, tables)
		}
		return bench.FprintAll(out, tables)
	}

	if *list {
		if *asJSON {
			return printIndexJSON(out)
		}
		return printIndex(out)
	}

	if *serveAt != "" {
		return serveMain(*serveAt, out)
	}

	if *dump != "" {
		return runTraceDump(out, *dump)
	}

	if *compare != "" {
		snap, err := bench.LoadSnapshot(*compare)
		if err != nil {
			return err
		}
		tables, err := bench.CompareThroughput(snap.Tables)
		if err != nil {
			return err
		}
		if !*asJSON {
			// A cross-machine or cross-toolchain diff is context every
			// verdict below depends on — print both headers first.
			if snap.Machine == (bench.Machine{}) {
				fmt.Fprintln(out, "snapshot machine: unrecorded")
			} else {
				fmt.Fprintf(out, "snapshot machine: %s\n", snap.Machine)
			}
			fmt.Fprintf(out, "current machine:  %s\n\n", bench.CurrentMachine())
		}
		return emit(tables)
	}

	if *impl != "" {
		tables, err := implTables(*impl, *n)
		if err != nil {
			return err
		}
		return emit(tables)
	}

	if *only != "" {
		e, ok := bench.Lookup(*only)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *only)
		}
		tbl, err := e.Run(bench.Options{Cell: *cellGlob, Smoke: *tier == "smoke"})
		if err != nil {
			return err
		}
		return emit([]*bench.Table{tbl})
	}

	tables, err := bench.Suite()
	if err != nil {
		// Print what we have; the error explains the rest.
		_ = emit(tables)
		return err
	}
	return emit(tables)
}

// printIndex lists the experiment index and the implementation registry.
func printIndex(out io.Writer) error {
	fmt.Fprintln(out, "experiments:")
	for _, e := range bench.Experiments() {
		fmt.Fprintf(out, "  %-4s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "implementations (use with -impl; structures also run the E11 guard matrix):")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  id\tkind\tm(n)\tt(n)\tbounded\tcorrect\ttheorem")
	for _, im := range registry.All() {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%v\t%v\t%s\n",
			im.ID, im.Kind, im.Space, im.Steps, im.Bounded, im.Correct, im.Theorem)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "guard regimes (structure protection, E11 matrix):")
	for _, spec := range registry.GuardSpecs(false) {
		kind := "conditional"
		if !spec.Conditional() {
			kind = "detection-only (event flag)"
		}
		fmt.Fprintf(out, "  %-22s %s\n", spec, kind)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "reclamation schemes (node-pool SMR, E12 matrix):")
	for _, im := range registry.Reclaimers() {
		fmt.Fprintf(out, "  %-22s %s\n", im.ID, im.Summary)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "load profiles (traffic generator, E13):")
	for _, p := range load.Profiles() {
		fmt.Fprintf(out, "  %-22s %s\n", p.ID, p.Summary)
	}
	return nil
}

// printIndexJSON emits the same index machine-readably.
func printIndexJSON(out io.Writer) error {
	type experiment struct {
		ID    string
		Title string
	}
	type implementation struct {
		ID      string
		Kind    string
		Summary string
		Theorem string
		Space   string
		Steps   string
		Bounded bool
		Correct bool
	}
	index := struct {
		Experiments     []experiment
		Implementations []implementation
	}{}
	for _, e := range bench.Experiments() {
		index.Experiments = append(index.Experiments, experiment{e.ID, e.Title})
	}
	for _, im := range registry.All() {
		index.Implementations = append(index.Implementations, implementation{
			ID: im.ID, Kind: string(im.Kind), Summary: im.Summary, Theorem: im.Theorem,
			Space: im.Space, Steps: im.Steps, Bounded: im.Bounded, Correct: im.Correct,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(index)
}

// implTables reports one (or every) registered implementation at n
// processes: metadata, measured footprint, and a quick throughput probe.
func implTables(id string, n int) ([]*bench.Table, error) {
	var impls []registry.Impl
	if id == "all" {
		impls = registry.All()
	} else {
		im, ok := registry.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown implementation %q (try -list)", id)
		}
		impls = []registry.Impl{im}
	}
	var tables []*bench.Table
	for _, im := range impls {
		tbl, err := implTable(im, n)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

func implTable(im registry.Impl, n int) (*bench.Table, error) {
	t := &bench.Table{
		ID:     im.ID,
		Title:  im.Summary,
		Header: []string{"property", "value"},
	}
	t.AddRow("kind", string(im.Kind))
	t.AddRow("theorem", im.Theorem)
	if im.Kind == registry.KindStructure {
		t.AddRow("space", im.Space+" (capacity-dependent)")
	} else {
		t.AddRow("space m(n)", fmt.Sprintf("%s (= %d at n=%d)", im.Space, im.SpaceFn(n), n))
	}
	t.AddRow("steps t(n)", im.Steps)
	t.AddRow("bounded", fmt.Sprintf("%v", im.Bounded))
	t.AddRow("correct", fmt.Sprintf("%v", im.Correct))

	const valueBits = 16
	const pairs = 100_000
	f := shmem.NewNativeFactory()
	workload, elapsed, err := bench.SequentialProbe(im, f, n, valueBits, pairs)
	if err != nil {
		return nil, fmt.Errorf("%s at n=%d: %w", im.ID, n, err)
	}
	t.AddRow("measured footprint", f.Footprint().String())
	t.AddRow("throughput probe",
		fmt.Sprintf("%s: %d ops in %v (%.1f ns/op)",
			workload, pairs, elapsed.Round(time.Microsecond),
			float64(elapsed.Nanoseconds())/float64(pairs)))
	if !im.Correct {
		t.AddNote("deliberate foil: its word repeats after 2^%d writes and a poised reader misses them.", im.TagBits)
	}
	return t, nil
}
