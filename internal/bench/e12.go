package bench

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/registry"
)

// E12Reclaim measures the safe-memory-reclamation axis: every structure
// with a node pool driven by the fixed MPMC workload under each canonical
// protection regime × each registered reclaimer.  The table answers the
// paper's question empirically — what do you pay in time to stop paying in
// tag bits?  A raw guard plus hp/epoch reclamation must audit clean (the
// ABA is prevented below the guard), while raw+none remains the §1 victim;
// the outcome column carries the audit, the prevented-ABA count, and the
// reclaimer's retire/free/defer counters so the cost and the effect land in
// one row.  abalab exposes it as `-run E12` (narrowed with -cell, e.g.
// -cell 'stack/*+hp').
func E12Reclaim(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "reclamation matrix: structure × protection regime × reclaimer (SMR as the ABA defense)",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s", "outcome"},
	}
	var cells []cell
	for _, im := range registry.Structures() {
		for _, spec := range regimes {
			for _, rim := range registry.Reclaimers() {
				io := apps.InstanceOptions{Reclaim: rim.NewReclaimer}
				label := im.ID + "/" + spec.String() + "+" + rim.ID
				cells = append(cells, cell{label, func() ([][]string, error) {
					return opMixRun(label, im, spec, io, 10_000, func(inst apps.Instance) string {
						ps := inst.PoolStats()
						return fmt.Sprintf("retired=%d freed=%d deferred=%d exhausted=%d",
							ps.Reclaim.Retired, ps.Reclaim.Freed, ps.Reclaim.Deferred(), ps.Exhaustions)
					})
				}})
			}
		}
	}
	if err := runCells(t, cells, opts); err != nil {
		return nil, err
	}
	t.AddNote("rows run on the default mutex FIFO pool so the reclaimer is the only allocator variable; the event flag has no pool and reports the same numbers on every scheme.")
	t.AddNote("raw+none is the §1 victim (a corrupt audit is the expected result, not a harness failure); raw+hp and raw+epoch must audit clean — the reclaimer prevents the ABA the raw guard cannot see.")
	t.AddNote("outcome: audit corruption, guards' detected-and-prevented count, then the reclaimer's retired/freed/deferred and the pool's exhaustion count.")
	return t, nil
}
