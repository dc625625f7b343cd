package bench

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/load"
	"abadetect/internal/registry"
	"abadetect/internal/trace"
)

// E17 is the observability matrix: what does the flight recorder cost?  Each
// (structure × regime × reclaimer) cell runs the same closed-loop churn
// twice — once untraced, once with a recorder on every guard, allocator, and
// reclaimer seam — and the overhead column prices the tracing build against
// its own untraced twin from the same run.  The off rows are trajectory
// rows, not a gate: they are ordinary throughput rows, so -bench-compare
// diffs them against committed snapshots like any other matrix, and CI
// runs that compare report-only, so a tracing seam that leaks cost into
// the *disabled* path shows in the log without failing the build.

const (
	// e17Workers matches the other pressure matrices' process count.
	e17Workers = 8
	// e17Capacity is roomy enough that the churn never starves: the cells
	// measure tracing cost, not allocator backpressure.
	e17Capacity = 256
	// e17RingCap is the per-process event-ring capacity of the traced runs —
	// generous enough that wraparound, not watch logic, is the steady state.
	e17RingCap = 1024
)

// e17Specs is the regime axis: the cheap tagged guard (where per-event cost
// is proportionally largest) and the LL/SC guard (the default regime).
var e17Specs = regimes[1:3]

// e17Schemes is the reclaimer axis: the pass-through floor and the
// self-tuning epoch scheme (whose drain/advance path is itself instrumented).
var e17Schemes = []string{"none", "epoch:auto"}

// e17Profile is the shared churn shape: closed loop, write-leaning, so both
// the guard seams and the allocator seams fire on most operations.
func e17Profile(opsPerWorker int) load.Profile {
	return load.Profile{
		ID: "churn", Summary: "closed loop, 40/50/10 churn",
		Arrival: load.Closed, Workers: e17Workers, OpsPerWorker: opsPerWorker,
		Keys: 64, ZipfS: 0, GetPct: 40, PutPct: 50, DeletePct: 10, Seed: 0x5eed17,
		NoPrepopulate: true,
	}
}

// E17ObservabilityMatrix measures the flight recorder's price: trace off/on ×
// structure × regime × reclaimer under identical churn, with ns/op, p999,
// the recorded-event count, and the on/off overhead ratio per cell pair.
// A cell is one (structure, regime, reclaimer) configuration and emits its
// off/on pair, since the overhead column needs both.  The smoke tier trims
// each cell to 2,000 ops per worker.
func E17ObservabilityMatrix(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "observability matrix: flight-recorder overhead, trace off/on × structure × regime × reclaimer",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "p999", "events", "overhead", "outcome"},
	}
	opsPerWorker := 25_000
	if opts.Smoke {
		opsPerWorker = 2_000
	}
	p := e17Profile(opsPerWorker)
	var cells []cell
	for _, structID := range []string{"stack", "map"} {
		im := registry.MustLookup(structID)
		for _, spec := range e17Specs {
			for _, scheme := range e17Schemes {
				cells = append(cells, cell{im.ID + "/" + spec.String() + "+" + scheme, func() ([][]string, error) {
					offRow, offNs, err := e17Run(im, spec, scheme, p, false)
					if err != nil {
						return nil, fmt.Errorf("off: %w", err)
					}
					onRow, onNs, err := e17Run(im, spec, scheme, p, true)
					if err != nil {
						return nil, fmt.Errorf("on: %w", err)
					}
					if offNs > 0 {
						onRow[len(onRow)-2] = fmt.Sprintf("%.2fx", onNs/offNs)
					}
					return [][]string{offRow, onRow}, nil
				}})
			}
		}
	}
	if err := runCells(t, cells, opts); err != nil {
		return nil, err
	}
	t.AddNote("each off/on pair runs the identical closed-loop churn (%d workers, %d-node pool); overhead = traced ns/op ÷ untraced ns/op from the same run, so it diffs meaningfully across machines.", e17Workers, e17Capacity)
	t.AddNote("trace-off rows are report-only trajectory rows: tracing disabled should cost nothing (no guard or pool is wrapped; an operation's bracket, an operation mark or a reclaimer scan is one inlined nil check), and -bench-compare diffs these rows against a committed snapshot without gating on them.  Traced rows pay per event a ticket fetch-add or load and four slot stores, and per operation one store that publishes its events.")
	t.AddNote("events counts the merged dump of the traced run — ring-capped at %d per process, so it measures retention, not total traffic; every guard load/commit, alloc/release/retire, and reclaimer scan/advance lands in a ring.", e17RingCap)
	return t, nil
}

// e17Run drives one cell and returns its rendered row plus ns/op for the
// pairwise overhead ratio.
func e17Run(im registry.Impl, spec registry.GuardSpec, scheme string, p load.Profile, traced bool) ([]string, float64, error) {
	mkr, err := registry.NewReclaimMaker(scheme)
	if err != nil {
		return nil, 0, err
	}
	io := apps.InstanceOptions{Reclaim: mkr}
	var rec *trace.Recorder
	if traced {
		rec = trace.New(p.Workers, e17RingCap)
		io.Trace = rec
	}
	inst, err := build(im, spec, p.Workers, e17Capacity, io)
	if err != nil {
		return nil, 0, err
	}
	res, err := load.Run(inst, p)
	if err != nil {
		return nil, 0, err
	}
	mode, events := "trace-off", "-"
	if traced {
		mode = "trace-on"
		events = fmt.Sprintf("%d", len(rec.Merge()))
	}
	_, _, p999 := res.Latency.Percentiles()
	nsOp := float64(res.Elapsed.Nanoseconds()) / float64(res.Ops)
	return []string{
		im.ID + "/" + spec.String() + "+" + scheme + "/" + mode,
		string(im.Kind),
		p.Workload(),
		fmt.Sprintf("%d", res.Ops),
		fmt.Sprintf("%.1f", nsOp),
		fmt.Sprintf("%v", p999),
		events,
		"-",
		outcome(inst, ""),
	}, nsOp, nil
}
