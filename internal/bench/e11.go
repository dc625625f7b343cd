package bench

import (
	"fmt"
	"time"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/load"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// E11Apps measures the application layer across the whole structure × guard
// matrix: every registered structure (stack, queue, event flag) driven by a
// fixed MPMC workload under every guard spec the registry enumerates for it.
// Each row reports throughput plus the post-run audit and the guard's
// near-miss counter — so the table shows, in one sweep, both what each
// protection regime costs and what it catches.  abalab exposes it as
// `-run E11` (narrowed with -cell, e.g. -cell 'queue/*').
func E11Apps(opts Options) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "application throughput over the structure × guard matrix (§1, registry-driven)",
		Header: []string{"implementation", "kind", "workload", "ops", "ns/op", "Mops/s", "outcome"},
	}
	var cells []cell
	for _, im := range registry.Structures() {
		for _, spec := range registry.GuardSpecs(im.ID != "event") {
			// Structures that commit also route their free list through the
			// guard regime; the event flag has no pool.
			io := apps.InstanceOptions{GuardedPool: spec.Conditional()}
			label := im.ID + "/" + spec.String()
			cells = append(cells, cell{label, func() ([][]string, error) {
				return opMixRun(label, im, spec, io, 20_000, nil)
			}})
		}
	}
	if err := runCells(t, cells, opts); err != nil {
		return nil, err
	}
	t.AddNote("stack/queue ops are push+pop / enq+deq pairs over a guarded free list; event ops are signal/reset pulses (pid 0) and polls.")
	t.AddNote("outcome is the quiescent audit plus the guards' detected-and-prevented ABA count; a corrupt raw audit is the §1 story, not a harness failure.")
	return t, nil
}

// opMixWorkers and opMixCapacity fix the E11/E12 workload shape: a small
// pool shared by four goroutines, so recycling (and with it the ABA) is
// frequent.
const (
	opMixWorkers  = 4
	opMixCapacity = 16
)

// opMixRun drives one E11/E12 cell — opMixWorkers goroutines issuing
// perWorker ops of the structure's fixed op mix through the lean closed loop
// — and renders its row; counters, when non-nil, adds the matrix's own
// outcome counters.
func opMixRun(label string, im registry.Impl, spec registry.GuardSpec, io apps.InstanceOptions, perWorker int, counters func(apps.Instance) string) ([][]string, error) {
	inst, err := build(im, spec, opMixWorkers, opMixCapacity, io)
	if err != nil {
		return nil, err
	}
	res, err := load.RunThroughput(inst, load.Profile{ID: "op-mix", Workers: opMixWorkers, OpsPerWorker: perWorker})
	if err != nil {
		return nil, err
	}
	extra := ""
	if counters != nil {
		extra = counters(inst)
	}
	return [][]string{{
		label,
		string(im.Kind),
		fmt.Sprintf("%d goroutines, op mix", opMixWorkers),
		fmt.Sprintf("%d", res.Ops),
		fmt.Sprintf("%.1f", float64(res.Elapsed.Nanoseconds())/float64(res.Ops)),
		fmt.Sprintf("%.2f", float64(res.Ops)/res.Elapsed.Seconds()/1e6),
		outcome(inst, extra),
	}}, nil
}

// AppSequentialProbe times `pairs` single-process ops of a registered
// structure under the default LL/SC guard — the structure analog of
// SequentialProbe, shared by abalab's -impl report.  The event instance
// needs at least a signaler and a poller, so n is clamped to 2; only
// worker 0 is driven either way.
func AppSequentialProbe(im registry.Impl, f shmem.Factory, n int, pairs int) (string, time.Duration, error) {
	if n < 2 {
		n = 2
	}
	mk, err := registry.NewGuardMaker(f, n, registry.GuardSpec{Regime: guard.LLSC})
	if err != nil {
		return "", 0, err
	}
	inst, err := im.NewStructure(f, n, 16, mk, apps.InstanceOptions{})
	if err != nil {
		return "", 0, err
	}
	step, err := inst.Worker(0)
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	for i := 0; i < pairs; i++ {
		step(i)
	}
	return "op pair (llsc guard)", time.Since(start), nil
}
