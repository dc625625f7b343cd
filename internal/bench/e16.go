package bench

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/load"
	"abadetect/internal/registry"
)

// E16 is the reclamation-pressure matrix: where E12 asks "does SMR prevent
// the ABA and what does it cost in throughput", E16 asks the allocator-side
// question — how much of the pool does each scheme keep parked in limbo,
// and how often does that lag starve an allocation that plenty of retired
// nodes could have served.  The paper's trade reads directly off the
// columns: hp pays t(n) (sorted scans of n·H published slots) to keep limbo
// per-node tight, epoch pays m(n) (n+1 words) and parks whole batches
// behind its advance cadence, and the cadence is exactly the knob the
// epoch:k and epoch:auto rows sweep.

// e16Schemes is the scheme axis: the pass-through floor, the hp ceiling,
// the default epoch cadence, a deliberately lazy fixed cadence (the
// limbo-lag foil), and the self-tuning cadence under test.
var e16Schemes = []string{"none", "hp", "epoch", "epoch:64", "epoch:auto"}

const (
	// e16Capacity is every cell's fixed node pool: tight enough that a
	// write-leaning run's retire churn can starve allocations through
	// reclaimer lag alone (the live set stays well under half the pool).
	e16Capacity = 96
	// e16Workers must be high enough that a lazy cadence's pending ceiling
	// (workers × k) overruns the pool: at 8 workers, epoch:64 can park 512
	// nodes' worth of retires against 96 slots, so limbo lag turns into
	// alloc-misses a worker's own forced drain cannot recover (the stranded
	// nodes sit unstamped in OTHER handles' pending lists).
	e16Workers = 8
)

// e16Profiles is the profile axis: the write-leaning churn shape that
// exposes limbo lag (every other op retires a node, so a lazy cadence
// parks a large share of the pool), and a read-heavy shape where retires
// are rare and every scheme should sit near the none floor.
func e16Profiles(opsPerWorker int) []load.Profile {
	return []load.Profile{
		{
			ID: "write-lean", Summary: "closed loop, write-leaning 40/50/10 churn over a tight pool",
			Arrival: load.Closed, Workers: e16Workers, OpsPerWorker: opsPerWorker,
			Keys: 32, ZipfS: 0, GetPct: 40, PutPct: 50, DeletePct: 10, Seed: 0x5eed9,
			NoPrepopulate: true,
		},
		{
			ID: "read-heavy", Summary: "closed loop, read-heavy 90/5/5 trickle",
			Arrival: load.Closed, Workers: e16Workers, OpsPerWorker: opsPerWorker,
			Keys: 32, ZipfS: 0, GetPct: 90, PutPct: 5, DeletePct: 5, Seed: 0x5eeda,
			NoPrepopulate: true,
		},
	}
}

// E16PressureMatrix measures reclamation at line rate: scheme × structure ×
// profile under a sound guard regime, with the allocator-side counters as
// the columns — limbo is the retired-not-yet-freed residue at quiescence,
// alloc-miss counts allocations that found the free list empty (after the
// reclaimer's drain), scans/skips count hazard sweeps performed vs served
// from the unchanged-snapshot cache, batches counts amortized multi-node
// retirements, and tune counts epoch:auto's cadence moves (tightens/
// relaxes).  The smoke tier trims each cell to 2,000 ops per worker.
//
// The headline contrast: on write-lean cells, fixed lazy epoch (epoch:64)
// parks the most nodes and starves the most allocations; epoch:auto's
// backpressure-driven cadence should close most of that alloc-miss gap
// toward hp while keeping epoch's n+1-register footprint.
func E16PressureMatrix(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "reclamation-pressure matrix: scheme × structure × profile, limbo occupancy and alloc-miss lag",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "p999", "limbo", "alloc-miss", "scans", "skips", "batches", "tune", "outcome"},
	}
	opsPerWorker := 25_000
	if opts.Smoke {
		opsPerWorker = 2_000
	}
	spec := registry.GuardSpec{Regime: guard.Tagged, TagBits: 16}
	var cells []cell
	for _, structID := range []string{"stack", "map"} {
		im := registry.MustLookup(structID)
		for _, scheme := range e16Schemes {
			for _, p := range e16Profiles(opsPerWorker) {
				// Non-keyed structures ignore the op mix (push+pop every
				// op IS the churn shape), so one cell per scheme suffices.
				if im.ID != "map" && p.ID != "write-lean" {
					continue
				}
				cells = append(cells, cell{im.ID + "/" + scheme + "/" + p.ID, func() ([][]string, error) {
					row, err := pressureRun(im, spec, scheme, p)
					return [][]string{row}, err
				}})
			}
		}
	}
	if err := runCells(t, cells, opts); err != nil {
		return nil, err
	}
	t.AddNote("every cell runs a fixed %d-node pool under %s guards with %d workers; the write-lean profile churns a node through the allocator on most ops while the live set stays under half the pool, so every alloc-miss is reclaimer lag, not saturation.", e16Capacity, spec, e16Workers)
	t.AddNote("limbo is the retired-but-not-freed residue at quiescence; alloc-miss counts allocations that found no free node even after the caller's drain.  none is the floor (zero limbo, immediate reuse — and the §1 vulnerability), hp is the robustness ceiling (per-node scans keep limbo tight), epoch:64 is the lazy-cadence foil.")
	t.AddNote("scans vs skips prices the hp fast-scan cache: a skip is a threshold sweep served from the sorted snapshot because no hazard slot changed.  batches counts multi-node retirements (the structures' commit paths and the map's per-operation kill sets) whose cadence bookkeeping was amortized.")
	t.AddNote("tune is epoch:auto's cadence trace as tightens/relaxes: allocator backpressure and limbo pressure pull the advance cadence toward 1, empty drains let it geometrically recover toward the min(2n, cap/n) ceiling.")
	return t, nil
}

// pressureRun drives one (structure, scheme, profile) cell and reads the
// reclamation counters at quiescence.
func pressureRun(im registry.Impl, spec registry.GuardSpec, scheme string, p load.Profile) ([]string, error) {
	mkr, err := registry.NewReclaimMaker(scheme)
	if err != nil {
		return nil, err
	}
	inst, err := build(im, spec, p.Workers, e16Capacity, apps.InstanceOptions{Reclaim: mkr})
	if err != nil {
		return nil, err
	}
	res, err := load.Run(inst, p)
	if err != nil {
		return nil, err
	}
	ps := inst.PoolStats()
	tune := "-"
	if ps.Reclaim.Tightens+ps.Reclaim.Relaxes > 0 {
		tune = fmt.Sprintf("%d/%d", ps.Reclaim.Tightens, ps.Reclaim.Relaxes)
	}
	_, _, p999 := res.Latency.Percentiles()
	return []string{
		im.ID + "/" + scheme + "/" + p.ID,
		string(im.Kind),
		p.Workload(),
		fmt.Sprintf("%d", res.Ops),
		fmt.Sprintf("%.1f", float64(res.Elapsed.Nanoseconds())/float64(res.Ops)),
		fmt.Sprintf("%v", p999),
		fmt.Sprintf("%d", ps.Reclaim.Deferred()),
		fmt.Sprintf("%d", ps.Exhaustions),
		fmt.Sprintf("%d", ps.Reclaim.Scans),
		fmt.Sprintf("%d", ps.Reclaim.SkippedScans),
		fmt.Sprintf("%d", ps.Reclaim.Batches),
		tune,
		outcome(inst, fmt.Sprintf("retired=%d freed=%d stalls=%d", ps.Reclaim.Retired, ps.Reclaim.Freed, ps.Reclaim.Stalls)),
	}, nil
}
