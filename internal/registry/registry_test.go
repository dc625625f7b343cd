package registry

import (
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/shmem"
)

func TestTableWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, im := range All() {
		if im.ID == "" || im.Summary == "" || im.Theorem == "" || im.Space == "" || im.Steps == "" {
			t.Errorf("%q: incomplete metadata: %+v", im.ID, im)
		}
		if seen[im.ID] {
			t.Errorf("duplicate ID %q", im.ID)
		}
		seen[im.ID] = true
		switch im.Kind {
		case KindDetector:
			if im.NewDetector == nil || im.NewLLSC != nil || im.NewStructure != nil {
				t.Errorf("%q: detector entry must set exactly NewDetector", im.ID)
			}
			if im.LLSCBase != "" {
				base, ok := Lookup(im.LLSCBase)
				if !ok || base.Kind != KindLLSC {
					t.Errorf("%q: LLSCBase %q is not a registered LL/SC implementation", im.ID, im.LLSCBase)
				}
			}
		case KindLLSC:
			if im.NewLLSC == nil || im.NewDetector != nil || im.NewStructure != nil {
				t.Errorf("%q: llsc entry must set exactly NewLLSC", im.ID)
			}
		case KindStructure:
			if im.NewStructure == nil || im.NewDetector != nil || im.NewLLSC != nil || im.NewReclaimer != nil {
				t.Errorf("%q: structure entry must set exactly NewStructure", im.ID)
			}
		case KindReclaimer:
			if im.NewReclaimer == nil || im.NewDetector != nil || im.NewLLSC != nil || im.NewStructure != nil {
				t.Errorf("%q: reclaimer entry must set exactly NewReclaimer", im.ID)
			}
		default:
			t.Errorf("%q: unknown kind %q", im.ID, im.Kind)
		}
		if im.SpaceFn == nil {
			t.Errorf("%q: missing SpaceFn", im.ID)
		}
		if !im.Correct && im.TagBits == 0 {
			t.Errorf("%q: foil must declare its tag width", im.ID)
		}
	}
	if len(Detectors())+len(LLSCs())+len(Structures())+len(Reclaimers()) != len(All()) {
		t.Error("kinds do not partition the registry")
	}
}

func TestEveryImplConstructsAndMatchesFootprint(t *testing.T) {
	for _, im := range All() {
		if im.Kind == KindStructure {
			continue // capacity-dependent: abadetect's TestStructureFootprintsMatchRegistry checks them
		}
		for _, n := range []int{1, 2, 8} {
			f := shmem.NewNativeFactory()
			var err error
			switch im.Kind {
			case KindDetector:
				_, err = im.NewDetector(f, n, 8, 0)
			case KindReclaimer:
				_, err = im.NewReclaimer(f, im.ID, n, 8)
			default:
				_, err = im.NewLLSC(f, n, 8, 0)
			}
			if err != nil {
				t.Errorf("%s: n=%d: %v", im.ID, n, err)
				continue
			}
			if got, want := f.Footprint().Objects(), im.SpaceFn(n); got != want {
				t.Errorf("%s: n=%d: footprint %d, SpaceFn says %d", im.ID, n, got, want)
			}
		}
	}
}

// TestStructureMatrixConstructsAndRuns is the registry-level acceptance of
// the guard refactor: every registered structure constructs and completes a
// short workload under every guard spec of its matrix.
func TestStructureMatrixConstructsAndRuns(t *testing.T) {
	const n = 2
	for _, im := range Structures() {
		conditionalOnly := im.ID != "event"
		for _, spec := range GuardSpecs(conditionalOnly) {
			t.Run(im.ID+"/"+spec.String(), func(t *testing.T) {
				f := shmem.NewNativeFactory()
				mk, err := NewGuardMaker(f, n, spec)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := im.NewStructure(f, n, 8, mk, apps.InstanceOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for pid := 0; pid < n; pid++ {
					w, err := inst.Worker(pid)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 50; i++ {
						w(i)
					}
				}
				if corrupt, detail := inst.Audit(); corrupt {
					// Even raw guards cannot corrupt a sequential workload.
					t.Errorf("sequential workload corrupted: %s", detail)
				}
			})
		}
	}
}

func TestGuardSpecStrings(t *testing.T) {
	for _, tc := range []struct {
		spec GuardSpec
		want string
	}{
		{GuardSpec{Regime: 1}, "raw"},
		{GuardSpec{Regime: 2, TagBits: 16}, "tag16"},
		{GuardSpec{Regime: 3}, "llsc:fig3"},
		{GuardSpec{Regime: 3, ImplID: "constant"}, "llsc:constant"},
		{GuardSpec{Regime: 4}, "detector:fig5-fig3"},
		{GuardSpec{Regime: 4, ImplID: "fig4"}, "detector:fig4"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestGuardSpecsMatrix(t *testing.T) {
	cond := GuardSpecs(true)
	all := GuardSpecs(false)
	if len(all) <= len(cond) {
		t.Errorf("full matrix (%d) not larger than conditional matrix (%d)", len(all), len(cond))
	}
	for _, s := range cond {
		if !s.Conditional() {
			t.Errorf("conditional matrix contains detection-only spec %s", s)
		}
	}
	// The full matrix must include the register-only Figure 4 detector: the
	// event flag is precisely the workload it can serve.
	found := false
	for _, s := range all {
		if s.String() == "detector:fig4" {
			found = true
		}
	}
	if !found {
		t.Error("full matrix lacks detector:fig4")
	}
	if _, err := NewGuardMaker(shmem.NewNativeFactory(), 2, GuardSpec{Regime: 3, ImplID: "fig4"}); err == nil {
		t.Error("want error for an LLSC spec naming a detector impl")
	}
	if _, err := NewGuardMaker(shmem.NewNativeFactory(), 2, GuardSpec{Regime: 99}); err == nil {
		t.Error("want error for an unknown regime")
	}
}

func TestLookup(t *testing.T) {
	for _, id := range IDs() {
		im, ok := Lookup(id)
		if !ok || im.ID != id {
			t.Errorf("Lookup(%q) = (%q, %v)", id, im.ID, ok)
		}
	}
	if _, ok := Lookup("no-such-impl"); ok {
		t.Error("Lookup accepted an unknown ID")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup did not panic on unknown ID")
		}
	}()
	MustLookup("no-such-impl")
}

func TestDetectorsBehaveOnSmoke(t *testing.T) {
	// Cheap behavioral smoke so a registry entry pointing at the wrong
	// constructor fails here, close to the table.
	for _, im := range Detectors() {
		if !im.Correct {
			continue
		}
		d, err := im.NewDetector(shmem.NewNativeFactory(), 2, 8, 0)
		if err != nil {
			t.Fatalf("%s: %v", im.ID, err)
		}
		w, err := d.Handle(0)
		if err != nil {
			t.Fatalf("%s: %v", im.ID, err)
		}
		r, err := d.Handle(1)
		if err != nil {
			t.Fatalf("%s: %v", im.ID, err)
		}
		w.DWrite(3)
		if v, dirty := r.DRead(); v != 3 || !dirty {
			t.Errorf("%s: DRead = (%d,%v), want (3,true)", im.ID, v, dirty)
		}
		w.DWrite(5)
		w.DWrite(3)
		if v, dirty := r.DRead(); v != 3 || !dirty {
			t.Errorf("%s: ABA missed: DRead = (%d,%v), want (3,true)", im.ID, v, dirty)
		}
	}
}

func TestNewReclaimMaker(t *testing.T) {
	// Plain scheme IDs resolve; the epoch scheme alone takes a ":k" cadence
	// argument, which must be a positive integer.
	for _, id := range []string{"none", "hp", "epoch", "epoch:4"} {
		mk, err := NewReclaimMaker(id)
		if err != nil {
			t.Errorf("%q: %v", id, err)
			continue
		}
		r, err := mk(shmem.NewNativeFactory(), "t", 2, 8)
		if err != nil {
			t.Errorf("%q: maker failed: %v", id, err)
			continue
		}
		if r.NumProcs() != 2 {
			t.Errorf("%q: NumProcs = %d", id, r.NumProcs())
		}
	}
	for _, id := range []string{"hp:4", "none:1", "epoch:0", "epoch:-2", "epoch:x", "bogus"} {
		if _, err := NewReclaimMaker(id); err == nil {
			t.Errorf("%q: want error", id)
		}
	}
}
