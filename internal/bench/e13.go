package bench

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/load"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// E13Options parameterizes the traffic matrix beyond its three filters.
type E13Options struct {
	// Seed overrides every profile's RNG seed when nonzero, so one matrix
	// can be replayed on a different arrival/key sequence (abalab -seed).
	Seed uint64
}

// nonKeyedProfiles is the profile subset non-map structures run when no
// explicit profile filter is given: one closed loop, one open loop, and the
// open loop behind the admission queue.  The full profile list times the
// full structure list would square the matrix for little signal — the Zipf
// and mix parameters only bind through the Keyed seam anyway.
var nonKeyedProfiles = map[string]bool{"steady": true, "poisson": true, "poisson-shed": true}

// E13LoadMatrix measures the traffic layer: the keyed map and the stack (or
// any filtered structure; "traffic" means map+stack) driven by the load
// generator's named profiles across every canonical protection regime ×
// every registered reclaimer.  Where E11/E12 report throughput of a
// lockstep loop, E13 reports the latency *distribution* — p50/p99/p999 from
// the generator's log2 histograms — under closed-loop saturation, Poisson
// open-loop arrivals, and bursty herds, with Zipf key popularity and a
// configurable get/put/delete mix.  abalab exposes it as `-load`
// (filterable with -app and -reclaim).
func E13LoadMatrix(structFilter, schemeFilter, profileFilter string) (*Table, error) {
	return E13LoadMatrixOpts(structFilter, schemeFilter, profileFilter, E13Options{})
}

// E13LoadMatrixOpts is E13LoadMatrix with a seed override (see
// E13Options).
func E13LoadMatrixOpts(structFilter, schemeFilter, profileFilter string, opts E13Options) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "traffic matrix: structure × regime × reclaimer × load profile, with latency percentiles",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "goodput", "p50", "p99", "p999", "shed", "outcome"},
	}
	const capacity = 128

	if structFilter == "" {
		structFilter = "traffic"
	}
	regimes := []registry.GuardSpec{
		{Regime: guard.Raw},
		{Regime: guard.Tagged, TagBits: 16},
		{Regime: guard.LLSC},
		{Regime: guard.Detector},
	}

	structMatched, schemeMatched, profileMatched := false, false, false
	for _, im := range registry.Structures() {
		if structFilter != "all" && structFilter != im.ID &&
			!(structFilter == "traffic" && (im.ID == "map" || im.ID == "stack")) {
			continue
		}
		structMatched = true
		for _, spec := range regimes {
			for _, rim := range registry.Reclaimers() {
				if schemeFilter != "" && schemeFilter != "all" && schemeFilter != rim.ID {
					continue
				}
				schemeMatched = true
				for _, p := range load.Profiles() {
					if profileFilter != "" && profileFilter != "all" && profileFilter != p.ID {
						continue
					}
					// Trim non-keyed structures to the representative profile
					// subset unless a profile was named explicitly.
					if (profileFilter == "" || profileFilter == "all") &&
						im.ID != "map" && !nonKeyedProfiles[p.ID] {
						continue
					}
					// Read-mostly profiles belong to the E14 scaling matrix;
					// in E13's default sweep they would only duplicate rows
					// that predate every committed snapshot.
					if (profileFilter == "" || profileFilter == "all") && p.ReadMostly {
						continue
					}
					profileMatched = true
					res, outcome, err := loadRun(im, spec, rim, p, capacity, opts.Seed)
					if err != nil {
						return nil, fmt.Errorf("bench: E13 %s/%s+%s/%s: %w", im.ID, spec, rim.ID, p.ID, err)
					}
					// An open-loop cell with no admission queue keeps
					// absorbing arrivals no matter how far behind it
					// falls, so its tail percentiles measure backlog
					// depth, not per-op service time.  Tag the row so
					// regression gates can judge it accordingly.
					if p.Arrival != load.Closed && p.Queue == 0 {
						outcome += " backlog-dominated"
					}
					p50, p99, p999 := res.Latency.Percentiles()
					nsPer, goodput := "-", "-"
					if res.Ops > 0 {
						nsPer = fmt.Sprintf("%.1f", float64(res.Elapsed.Nanoseconds())/float64(res.Ops))
						goodput = fmt.Sprintf("%.2f", res.Goodput()/1e6)
					}
					t.AddRow(
						im.ID+"/"+spec.String()+"+"+rim.ID+"/"+p.ID,
						string(im.Kind),
						p.Workload(),
						fmt.Sprintf("%d", res.Ops),
						nsPer,
						goodput,
						fmt.Sprintf("%v", p50),
						fmt.Sprintf("%v", p99),
						fmt.Sprintf("%v", p999),
						fmt.Sprintf("%d", res.Shed),
						outcome,
					)
				}
			}
		}
	}
	if !structMatched {
		return nil, fmt.Errorf("bench: unknown structure %q (registered: %s, or \"traffic\" for map+stack)", structFilter, structureIDs())
	}
	if !schemeMatched {
		return nil, fmt.Errorf("bench: unknown reclamation scheme %q (registered: %s)", schemeFilter, reclaimerIDs())
	}
	if !profileMatched {
		return nil, fmt.Errorf("bench: unknown load profile %q (try abalab -list)", profileFilter)
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
func loadRun(im registry.Impl, spec registry.GuardSpec, rim registry.Impl, p load.Profile, capacity int, seed uint64) (load.Result, string, error) {
	f := shmem.NewNativeFactory()
	mk, err := registry.NewGuardMaker(f, p.Workers, spec)
	if err != nil {
		return load.Result{}, "", err
	}
	inst, err := im.NewStructure(f, p.Workers, capacity, mk, apps.InstanceOptions{Reclaim: rim.NewReclaimer})
	if err != nil {
		return load.Result{}, "", err
	}
	if seed != 0 {
		p.Seed = seed
	}
	res, err := load.Run(inst, p)
	if err != nil {
		return load.Result{}, "", err
	}
	corrupt, detail := inst.Audit()
	prevented := inst.GuardMetrics().NearMisses
	ps := inst.PoolStats()
	outcome := fmt.Sprintf("corrupt=%v prevented-ABA=%d exhausted=%d deferred=%d",
		corrupt, prevented, ps.Exhaustions, ps.Reclaim.Deferred())
	if corrupt {
		outcome += " (" + detail + ")"
	}
	return res, outcome, nil
}
