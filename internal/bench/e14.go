package bench

import (
	"fmt"
	"runtime"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/load"
	"abadetect/internal/registry"
)

// e14Workers is the worker sweep of the read-scaling matrix.  The scale
// column reports ops/s-per-worker relative to the 1-worker cell of the same
// configuration, so the 1-worker row always reads 1.00x.
var e14Workers = []int{1, 2, 4, 8}

// E14ReadScaling measures how the wait-free read protocol scales with
// workers: every structure that implements the read-mostly workload seam
// (apps.ReadMostly — map gets, stack/queue peeks) × every canonical
// protection regime × every registered reclaimer × 1/2/4/8 workers, driven
// by the read-heavy profile (90% reads, 5/5 write trickle) through the lean
// closed-loop runner (load.RunThroughput — no per-op clock reads, so the
// harness itself is not the bottleneck being measured).
//
// The row of interest is the scale column: per-worker throughput relative to
// the same configuration at 1 worker.  On the clean fast path a read takes
// no hazard slot, pins no epoch, and bumps no shared counter, so added
// workers contend only on the cache lines the write trickle dirties.  Note
// that wall-clock scaling also needs cores: on a GOMAXPROCS=1 box the rows
// still validate the protocol (clean audits, no fallback storms) but the
// scale column measures scheduler time-slicing, not parallel speedup — the
// table note records the GOMAXPROCS the run actually had.
func E14ReadScaling(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "read scaling: read-mostly traffic × regime × reclaimer × workers, per-worker throughput",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s", "scale", "outcome"},
		Units:  []Unit{Label, Label, Label, Count, Ns, Rate, Ratio, Label},
	}
	base, ok := load.LookupProfile("read-heavy")
	if !ok {
		return nil, fmt.Errorf("bench: E14 needs the read-heavy load profile")
	}
	var cells []cell
	for _, im := range registry.Structures() {
		if !readMostlyStructure(im) {
			continue // no read fast path: nothing to scale (the event flag)
		}
		for _, spec := range regimes {
			for _, rim := range registry.Reclaimers() {
				label := im.ID + "/" + spec.String() + "+" + rim.ID
				cells = append(cells, cell{label, func() ([][]Cell, error) {
					return readRun(label, im, spec, rim, base)
				}})
			}
		}
	}
	if err := runCells(t, cells, opts); err != nil {
		return nil, err
	}
	t.AddNote("scale = ops/s-per-worker vs the 1-worker cell of the same configuration: 1.00x is perfect read scaling, and it needs cores — this run had GOMAXPROCS=%d.", runtime.GOMAXPROCS(0))
	t.AddNote("the workload is the read-heavy profile through the lean closed-loop runner: no per-op clock reads, so ns/op is structure cost, not harness cost.")
	t.AddNote("clean reads take no hazard slot and pin no epoch, so the reclaimer column should barely move read-path cost; fallbacks (torn reads under the write trickle) are counted in each structure's audit.")
	t.AddNote("raw+none stays in the matrix as the §1 victim: its reads are equally wait-free, which is the point — the read protocol is independent of whether writers are sound.")
	return t, nil
}

// readMostlyStructure probes whether a registered structure implements the
// read-mostly workload seam, by constructing a throwaway 2-process instance.
func readMostlyStructure(im registry.Impl) bool {
	inst, err := build(im, registry.GuardSpec{Regime: guard.Raw}, 2, 8, apps.InstanceOptions{})
	if err != nil {
		return false
	}
	_, ok := inst.(apps.ReadMostly)
	return ok
}

// readRun drives one (structure, regime, reclaimer) cell of the
// read-scaling matrix across the e14Workers sweep, auditing each run at
// quiescence; the scale column needs the whole sweep.
func readRun(label string, im registry.Impl, spec registry.GuardSpec, rim registry.Impl, base load.Profile) ([][]Cell, error) {
	var rows [][]Cell
	var soloPerWorker float64
	for _, workers := range e14Workers {
		p := base
		p.Workers = workers
		inst, err := build(im, spec, workers, trafficCapacity, apps.InstanceOptions{Reclaim: rim.NewReclaimer})
		if err != nil {
			return nil, fmt.Errorf("w%d: %w", workers, err)
		}
		res, err := load.RunThroughput(inst, p)
		if err != nil {
			return nil, fmt.Errorf("w%d: %w", workers, err)
		}
		opsPerSec := float64(res.Ops) / res.Elapsed.Seconds()
		perWorker := opsPerSec / float64(workers)
		if workers == e14Workers[0] {
			soloPerWorker = perWorker
		}
		var scale any // absent when the 1-worker cell measured nothing
		if soloPerWorker > 0 {
			scale = perWorker / soloPerWorker
		}
		rows = append(rows, row(
			label,
			string(im.Kind),
			fmt.Sprintf("%s, w%d", p.Workload(), workers),
			res.Ops,
			float64(res.Elapsed.Nanoseconds())/float64(res.Ops),
			opsPerSec/1e6,
			scale,
			outcome(inst, ""),
		))
	}
	return rows, nil
}
