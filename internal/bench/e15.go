package bench

import (
	"fmt"
	"runtime"

	"abadetect/internal/apps"
	"abadetect/internal/load"
	"abadetect/internal/registry"
)

// growthStats is the seam a growable structure instance exposes to the E15
// table (see kv's mapInstance.GrowthStats).
type growthStats interface {
	GrowthStats() (splits, appends, retries int64, capNow int)
}

// e15Tier is one key-space magnitude of the growth matrix.  The small tier
// runs the full regime × reclaimer cross; the larger tiers keep the sound
// regimes that the small tier shows clean, because a 10M-op cell exists to
// prove the ceiling is reachable, not to re-demonstrate raw's corruption at
// greater expense.
type e15Tier struct {
	keys, ops int
	regimes   []registry.GuardSpec
	schemes   []string
}

// e15InitialCapacity is every growth cell's starting pool size: small enough
// that a 10k-key cell already crosses several segment-append and
// directory-split thresholds, so every tier measures resizes, not a
// pre-provisioned map.
const e15InitialCapacity = 1024

// e15Tiers is the key sweep 10k → 1M.  The 1M-key tier drives 10M operations
// into a map that must grow ~1000x past its initial capacity while serving
// them — the ROADMAP's "millions of keys under live traffic" head-on.
var e15Tiers = []e15Tier{
	{keys: 10_000, ops: 400_000, regimes: regimes, schemes: []string{"none", "hp", "epoch"}},
	{keys: 100_000, ops: 1_000_000, regimes: regimes[1:3], schemes: []string{"hp", "epoch"}},
	{keys: 1_000_000, ops: 10_000_000, regimes: regimes[1:2], schemes: []string{"hp", "epoch"}},
}

// E15GrowthMatrix measures split-ordered map growth under live traffic: the
// map starts at a 1024-node pool and one-bucket-per-node directory, and a
// write-leaning keyed workload (40/50/10 over a uniform key space) forces it
// through geometric node-segment appends and recursive directory splits up
// to a ceiling 50% above the key space — while every get, put, and delete
// runs concurrently with the resizes.  Tiers sweep the key space 10k → 1M
// (the 1M-key tier issues 10M operations); the smoke tier runs the 10k-key
// tier only.  A cell's label repeats across tiers, so a cell filter selects
// that configuration at every tier that runs.
//
// The columns to watch: appends and splits must be nonzero (the cell grew),
// exhausted in the outcome should sit near appends (each append is triggered
// by exactly one alloc miss; anything larger is reclaimer lag, not a growth
// failure), and p999 is where a stop-the-world resize would show up as a
// millisecond-scale spike; split-ordered growth has no such phase, so the
// tail should look like the traffic, not like the resizes.  resize-stalls
// counts directory doublings lost to a concurrent winner — contended-resize
// work that was retried, never a pause.
func E15GrowthMatrix(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "growth matrix: split-ordered map growth + geometric pool expansion under live traffic, keys 10k→1M",
		Header: []string{"implementation", "kind", "workload", "keys", "ops", "ns/op", "goodput", "p999", "splits", "appends", "resize-stalls", "outcome"},
	}
	im := registry.MustLookup("map")
	tiers := e15Tiers
	if opts.Smoke {
		tiers = tiers[:1]
		t.AddNote("smoke tier: only the %d-key tier ran.", tiers[0].keys)
	}
	var cells []cell
	for _, tier := range tiers {
		for _, spec := range tier.regimes {
			for _, scheme := range tier.schemes {
				rim := registry.MustLookup(scheme)
				cells = append(cells, cell{im.ID + "/" + spec.String() + "+" + rim.ID, func() ([][]string, error) {
					row, err := growRun(im, spec, rim, tier, e15Workers)
					if err != nil {
						return nil, fmt.Errorf("keys=%d: %w", tier.keys, err)
					}
					return [][]string{row}, nil
				}})
			}
		}
	}
	if err := runCells(t, cells, opts); err != nil {
		return nil, err
	}
	t.AddNote("every cell starts at a %d-node pool and grows to a ceiling 50%% above its key space: appends counts geometric node-segment appends, splits counts directory doublings, resize-stalls counts doublings lost to a concurrent winner (retried work, never a pause).", e15InitialCapacity)
	t.AddNote("the workload is the write-leaning growth profile (40/50/10, uniform keys, no prepopulation) — the map must grow *into* the key space while serving it; exhausted counts alloc attempts that found no free node, and each segment append is triggered by exactly one such miss — so exhausted≈appends means every miss was immediately repaired by growth, while epoch's large counts are reclaimer lag (retirees parked in limbo while allocators spin), not a growth failure.")
	t.AddNote("p999 is the stop-the-world detector: a rehash phase would spike it by orders of magnitude; split-ordered growth moves no node and rehashes nothing, so the tail tracks traffic contention. This run had GOMAXPROCS=%d, so cells measure time-sliced concurrency, not parallelism.", runtime.GOMAXPROCS(0))
	t.AddNote("larger tiers keep only sound regimes: raw's growth-path ABA is proven deterministically by the resize scenario (kv.MapGrowABAScenario), so a 10M-op victim cell would only re-roll the dice at 25x the cost.")
	return t, nil
}

// e15Workers is every growth cell's worker count.
const e15Workers = 2

// growRun drives one growth cell and audits at quiescence.
func growRun(im registry.Impl, spec registry.GuardSpec, rim registry.Impl, tier e15Tier, workers int) ([]string, error) {
	inst, err := build(im, spec, workers, e15InitialCapacity, apps.InstanceOptions{
		Reclaim: rim.NewReclaimer,
		GrowTo:  tier.keys + tier.keys/2,
	})
	if err != nil {
		return nil, err
	}
	p := load.GrowthProfile(tier.keys, tier.ops, workers)
	res, err := load.Run(inst, p)
	if err != nil {
		return nil, err
	}
	ps := inst.PoolStats()
	var splits, appends, retries int64
	capNow := 0
	if gs, ok := inst.(growthStats); ok {
		splits, appends, retries, capNow = gs.GrowthStats()
	}
	_, _, p999 := res.Latency.Percentiles()
	return []string{
		im.ID + "/" + spec.String() + "+" + rim.ID,
		string(im.Kind),
		fmt.Sprintf("%s, %dk keys", p.Workload(), tier.keys/1000),
		fmt.Sprintf("%d", tier.keys),
		fmt.Sprintf("%d", res.Ops),
		fmt.Sprintf("%.1f", float64(res.Elapsed.Nanoseconds())/float64(res.Ops)),
		fmt.Sprintf("%.2f", res.Goodput()/1e6),
		fmt.Sprintf("%v", p999),
		fmt.Sprintf("%d", splits),
		fmt.Sprintf("%d", appends),
		fmt.Sprintf("%d", retries),
		outcome(inst, fmt.Sprintf("exhausted=%d cap=%d→%d", ps.Exhaustions, e15InitialCapacity, capNow)),
	}, nil
}
