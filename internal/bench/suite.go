package bench

import "fmt"

// Experiment is one entry of the experiment index: a runnable reproduction
// of a paper artifact.  cmd/abalab's flags and the full Suite both iterate
// this slice, so adding an experiment here is the only edit needed.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title is a one-line description naming the paper artifact.
	Title string
	// Run executes the experiment and renders its table.
	Run func(Options) (*Table, error)
}

// Experiments returns the experiment index in E-number order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "space lower bound via model checking (Thm 1(a), Lemma 1)", fixed(E1ModelCheck)},
		{"E2", "time-space trade-off under the hiding adversary (Thm 1(b,c), Cor 1)",
			fixed(func() (*Table, error) { return E2TimeSpace([]int{2, 4, 8, 16, 32}) })},
		{"E3", "LL/SC/VL from one bounded CAS (Thm 2, Fig 3)", fixed(E3Fig3)},
		{"E4", "detecting register from n+1 registers (Thm 3, Fig 4)", fixed(E4Fig4)},
		{"E5", "detecting register from one LL/SC/VL (Thm 4, Fig 5)", fixed(E5Fig5)},
		{"E6", "Treiber-stack corruption & tag wraparound (§1)", fixed(E6Stack)},
		{"E7", "bounded vs unbounded domain growth (§1)", fixed(E7Separation)},
		{"E8", "Figure 4 ablations refuted (App. C)", fixed(E8Ablations)},
		{"E9", "constant-time LL/SC from one CAS + n registers ([2,15])", fixed(E9ConstantTime)},
		{"E10", "registry throughput: every implementation + sharded array", fixed(E10Throughput)},
		{"E11", "application throughput: structure × guard matrix (§1)", E11Apps},
		{"E12", "reclamation matrix: structure × regime × reclaimer (SMR as the ABA defense)", E12Reclaim},
		{"E13", "traffic matrix: map+stack × regime × reclaimer × load profile, with latency percentiles", E13LoadMatrix},
		{"E14", "read scaling: read-mostly traffic × regime × reclaimer × workers (wait-free read fast paths)", E14ReadScaling},
		{"E15", "growth matrix: split-ordered map growth + geometric pool expansion, keys 10k→1M under live traffic", E15GrowthMatrix},
		{"E16", "reclamation-pressure matrix: scheme × structure × profile, limbo occupancy and alloc-miss lag", E16PressureMatrix},
		{"E17", "observability matrix: flight-recorder overhead, trace off/on × structure × regime × reclaimer", E17ObservabilityMatrix},
	}
}

// fixed adapts an experiment without cells to the Options signature.  Its
// one table is the same at every tier, and a cell filter is refused rather
// than silently ignored.
func fixed(run func() (*Table, error)) func(Options) (*Table, error) {
	return func(opts Options) (*Table, error) {
		if opts.Cell != "" {
			return nil, fmt.Errorf("bench: cell filter %q: only the E11–E17 matrices have cells", opts.Cell)
		}
		return run()
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Suite runs every experiment at the full tier and returns the tables in
// E-number order.
func Suite() ([]*Table, error) {
	var tables []*Table
	for _, e := range Experiments() {
		tbl, err := e.Run(Options{})
		if err != nil {
			return tables, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}
