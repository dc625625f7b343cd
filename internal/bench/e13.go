package bench

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/load"
	"abadetect/internal/registry"
)

// nonKeyedProfiles is the profile subset the stack runs: one closed loop,
// one open loop, and the open loop behind the admission queue.  The full
// profile list times every structure would square the matrix for little
// signal — the Zipf and mix parameters only bind through the Keyed seam
// anyway.
var nonKeyedProfiles = map[string]bool{"steady": true, "poisson": true, "poisson-shed": true}

// trafficCapacity is the node pool of every E13 and E14 cell.
const trafficCapacity = 128

// E13LoadMatrix measures the traffic layer: the keyed map and the stack
// driven by the load generator's named profiles across every canonical
// protection regime × every registered reclaimer.  Where E11/E12 report
// throughput of a lockstep loop, E13 reports the latency *distribution* —
// p50/p99/p999 from the generator's log2 histograms — under closed-loop
// saturation, Poisson open-loop arrivals, and bursty herds, with Zipf key
// popularity and a configurable get/put/delete mix.  The map runs every
// profile except the read-mostly ones (those belong to E14), the stack the
// nonKeyedProfiles subset.  abalab exposes it as `-run E13` (narrowed with
// -cell, e.g. -cell 'map/*+none/steady').
func E13LoadMatrix(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "traffic matrix: structure × regime × reclaimer × load profile, with latency percentiles",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "goodput", "p50", "p99", "p999", "shed", "outcome"},
		Units:  []Unit{Label, Label, Label, Count, Ns, Rate, Duration, Duration, Duration, Count, Label},
	}
	var cells []cell
	for _, structID := range []string{"stack", "map"} {
		im := registry.MustLookup(structID)
		for _, spec := range regimes {
			for _, rim := range registry.Reclaimers() {
				for _, p := range load.Profiles() {
					if p.ReadMostly || (structID != "map" && !nonKeyedProfiles[p.ID]) {
						continue
					}
					label := im.ID + "/" + spec.String() + "+" + rim.ID + "/" + p.ID
					cells = append(cells, cell{label, func() ([][]Cell, error) {
						return loadRun(label, im, spec, rim, p)
					}})
				}
			}
		}
	}
	if err := runCells(t, cells, opts); err != nil {
		return nil, err
	}
	t.AddNote("latency percentiles come from allocation-free log2 histograms; open-loop rows measure from the *scheduled* arrival, so queueing delay counts (no coordinated omission).")
	t.AddNote("ops/ns-op/goodput (Mops/s) count *admitted* operations; shed is the count turned away at the admission queue, so goodput vs shed is the backpressure trade made explicit.")
	t.AddNote("keyed structures receive the profile's Zipf popularity and get/put/delete mix through the Keyed seam; others run their fixed op under the same arrival process.")
	t.AddNote("raw+none is the §1 victim (a corrupt audit is the expected result); the sound regimes and the hp/epoch reclaimers must audit clean under every profile.")
	t.AddNote("rows tagged backlog-dominated are unthrottled open loops: their tails measure how deep the backlog grew, not per-op service time, so -bench-compare reports them without gating on their tail gain.")
	return t, nil
}

// loadRun drives one (structure, regime, reclaimer, profile) cell and
// audits at quiescence.
func loadRun(label string, im registry.Impl, spec registry.GuardSpec, rim registry.Impl, p load.Profile) ([][]Cell, error) {
	inst, err := build(im, spec, p.Workers, trafficCapacity, apps.InstanceOptions{Reclaim: rim.NewReclaimer})
	if err != nil {
		return nil, err
	}
	res, err := load.Run(inst, p)
	if err != nil {
		return nil, err
	}
	ps := inst.PoolStats()
	out := outcome(inst, fmt.Sprintf("exhausted=%d deferred=%d", ps.Exhaustions, ps.Reclaim.Deferred()))
	// An open-loop cell with no admission queue keeps absorbing arrivals no
	// matter how far behind it falls, so its tail percentiles measure
	// backlog depth, not per-op service time.  Tag the row so regression
	// gates can judge it accordingly.
	if p.Arrival != load.Closed && p.Queue == 0 {
		out += " backlog-dominated"
	}
	p50, p99, p999 := res.Latency.Percentiles()
	var nsPer, goodput any // absent when the cell admitted nothing
	if res.Ops > 0 {
		nsPer = float64(res.Elapsed.Nanoseconds()) / float64(res.Ops)
		goodput = res.Goodput() / 1e6
	}
	return [][]Cell{row(label, string(im.Kind), p.Workload(), res.Ops, nsPer, goodput, p50, p99, p999, res.Shed, out)}, nil
}
