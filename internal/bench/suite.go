package bench

// Experiment is one entry of the experiment index: a runnable reproduction
// of a paper artifact.  cmd/abalab's flags and the full Suite both iterate
// this slice, so adding an experiment here is the only edit needed.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E2".
	ID string
	// Title is a one-line description naming the paper artifact.
	Title string
	// Run executes the experiment and renders its table.
	Run func() (*Table, error)
}

// Experiments returns the experiment index in E-number order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "space lower bound via model checking (Thm 1(a), Lemma 1)", E1ModelCheck},
		{"E2", "time-space trade-off under the hiding adversary (Thm 1(b,c), Cor 1)",
			func() (*Table, error) { return E2TimeSpace([]int{2, 4, 8, 16, 32}) }},
		{"E3", "LL/SC/VL from one bounded CAS (Thm 2, Fig 3)", E3Fig3},
		{"E4", "detecting register from n+1 registers (Thm 3, Fig 4)", E4Fig4},
		{"E5", "detecting register from one LL/SC/VL (Thm 4, Fig 5)", E5Fig5},
		{"E6", "Treiber-stack corruption & tag wraparound (§1)", E6Stack},
		{"E7", "bounded vs unbounded domain growth (§1)", E7Separation},
		{"E8", "Figure 4 ablations refuted (App. C)", E8Ablations},
		{"E9", "constant-time LL/SC from one CAS + n registers ([2,15])", E9ConstantTime},
		{"E10", "registry throughput: every implementation + sharded array", E10Throughput},
		{"E11", "application throughput: structure × guard matrix (§1)",
			func() (*Table, error) { return E11Apps("all") }},
		{"E12", "reclamation matrix: structure × regime × reclaimer (SMR as the ABA defense)",
			func() (*Table, error) { return E12Reclaim("all", "all") }},
		{"E13", "traffic matrix: map+stack × regime × reclaimer × load profile, with latency percentiles",
			func() (*Table, error) { return E13LoadMatrix("traffic", "all", "all") }},
		{"E14", "read scaling: read-mostly traffic × regime × reclaimer × workers (wait-free read fast paths)",
			func() (*Table, error) { return E14ReadScaling("all", "all") }},
		{"E15", "growth matrix: split-ordered map growth + geometric pool expansion, keys 10k→1M under live traffic",
			func() (*Table, error) { return E15GrowthMatrix(0) }},
		{"E16", "reclamation-pressure matrix: scheme × structure × profile, limbo occupancy and alloc-miss lag",
			func() (*Table, error) { return E16PressureMatrix(false) }},
		{"E17", "observability matrix: flight-recorder overhead, trace off/on × structure × regime × reclaimer",
			func() (*Table, error) { return E17ObservabilityMatrix(false) }},
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

// Suite runs every experiment and returns the tables in E-number order.
func Suite() ([]*Table, error) {
	var tables []*Table
	for _, e := range Experiments() {
		tbl, err := e.Run()
		if err != nil {
			return tables, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}
