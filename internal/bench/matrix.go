package bench

import (
	"fmt"
	"regexp"
	"strings"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// Options selects what one experiment run covers.  Only the E11–E17
// matrices have cells and tiers; the other experiments take the zero value.
type Options struct {
	// Cell is a glob over the matrix's cell labels — the rows'
	// implementation column, e.g. "map/tag16+hp/*".  "*" matches any run of
	// characters, "/" included; "" runs every cell.
	Cell string
	// Smoke selects the trimmed CI tier: E15 runs its 10k-key tier only,
	// E16 and E17 run 2,000 ops per worker.  E11–E14 are the same at both
	// tiers.
	Smoke bool
}

// cell is one independently runnable unit of a matrix, labeled by its rows'
// implementation column (E17's pair appends /trace-off and /trace-on).  A
// cell that emits several rows (E14's worker sweep, E17's trace-off/on
// pair) does so because its derived columns (scale, overhead) need the
// whole group.
type cell struct {
	label string
	rows  func() ([][]string, error)
}

// runCells runs the cells whose label matches opts.Cell, in order, and
// appends their rows to t.  A glob that matches nothing is an error, so a
// typo never passes for an empty matrix.
func runCells(t *Table, cells []cell, opts Options) error {
	// The glob's only wildcard is "*", and it crosses "/".
	glob := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(opts.Cell), `\*`, ".*") + "$")
	ran := false
	for _, c := range cells {
		if opts.Cell != "" && !glob.MatchString(c.label) {
			continue
		}
		ran = true
		rows, err := c.rows()
		if err != nil {
			return fmt.Errorf("bench: %s %s: %w", t.ID, c.label, err)
		}
		for _, row := range rows {
			t.AddRow(row...)
		}
	}
	if !ran {
		return fmt.Errorf("bench: %s: no cell matches %q (labels look like %q)", t.ID, opts.Cell, cells[0].label)
	}
	return nil
}

// regimes is the canonical protection axis of the E12–E15 matrices: the §1
// victim, the 16-bit tag, and the default LL/SC and detector guards.
// Matrices that keep only sound regimes slice it (regimes[1:3] is tag16 and
// LL/SC).
var regimes = []registry.GuardSpec{
	{Regime: guard.Raw},
	{Regime: guard.Tagged, TagBits: 16},
	{Regime: guard.LLSC},
	{Regime: guard.Detector},
}

// build constructs one cell's structure on a fresh native substrate, its
// references guarded per spec.
func build(im registry.Impl, spec registry.GuardSpec, workers, capacity int, io apps.InstanceOptions) (apps.Instance, error) {
	f := shmem.NewNativeFactory()
	mk, err := registry.NewGuardMaker(f, workers, spec)
	if err != nil {
		return nil, err
	}
	return im.NewStructure(f, workers, capacity, mk, io)
}

// outcome renders a quiescent instance's outcome column: the audit verdict
// and the guards' detected-and-prevented ABA count, then the matrix's own
// counters, then the audit detail when the audit failed.
func outcome(inst apps.Instance, counters string) string {
	corrupt, detail := inst.Audit()
	prevented := inst.GuardMetrics().NearMisses + inst.FreelistMetrics().NearMisses
	s := fmt.Sprintf("corrupt=%v prevented-ABA=%d", corrupt, prevented)
	if counters != "" {
		s += " " + counters
	}
	if corrupt {
		s += " (" + detail + ")"
	}
	return s
}
