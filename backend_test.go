package abadetect

import "testing"

func TestCountingBackend(t *testing.T) {
	be := NewCountingBackend(4)
	reg, err := NewDetectingRegister(4, WithBackend(be))
	if err != nil {
		t.Fatal(err)
	}
	h, err := reg.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	h.DWrite(1)
	if got := be.Steps(0); got != 2 {
		t.Errorf("DWrite took %d counted steps, claimed 2 (Fig 4)", got)
	}
	h.DRead()
	if got := be.Steps(0); got != 6 {
		t.Errorf("DWrite+DRead took %d counted steps, claimed 2+4 (Fig 4)", got)
	}
	// Aggregation across objects built through the same backend.
	obj, err := NewLLSC(4, WithBackend(be), WithValueBits(16))
	if err != nil {
		t.Fatal(err)
	}
	lh, err := obj.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	lh.LL()
	if be.Steps(1) == 0 {
		t.Error("steps on a second object not aggregated")
	}
	if be.TotalSteps() != be.Steps(0)+be.Steps(1) {
		t.Error("TotalSteps does not sum per-pid counts")
	}
	be.Reset()
	if be.TotalSteps() != 0 {
		t.Error("Reset did not zero the counters")
	}
	if be.Steps(-1) != 0 || be.Steps(99) != 0 {
		t.Error("out-of-range pids must read zero")
	}
}

func TestAuditBackend(t *testing.T) {
	be := NewAuditBackend()
	unbounded, err := NewDetectingRegisterUnboundedTag(2, WithBackend(be), WithValueBits(8))
	if err != nil {
		t.Fatal(err)
	}
	w, err := unbounded.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w.DWrite(Word(i % 5))
	}
	grown := be.MaxBitsUsed()
	if grown <= 8 {
		t.Errorf("unbounded baseline used only %d bits after 1000 writes", grown)
	}

	// Figure 4 through a fresh audit backend stays within its declared
	// bounded domain no matter how many writes happen.
	be2 := NewAuditBackend()
	fig4, err := NewDetectingRegister(2, WithBackend(be2), WithValueBits(8))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := fig4.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w2.DWrite(Word(i % 5))
	}
	if be2.MaxBitsUsed() >= grown {
		t.Errorf("Fig 4 used %d bits, not separated from unbounded's %d", be2.MaxBitsUsed(), grown)
	}
}

func TestPaddedBackend(t *testing.T) {
	reg, err := NewDetectingRegister(4, WithBackend(PaddedBackend()))
	if err != nil {
		t.Fatal(err)
	}
	if fp := reg.Footprint(); fp.Registers != 5 {
		t.Errorf("padding changed the footprint: %v", fp)
	}
	w, _ := reg.Handle(0)
	r, _ := reg.Handle(1)
	w.DWrite(3)
	if v, dirty := r.DRead(); v != 3 || !dirty {
		t.Errorf("DRead over padded backend = (%d,%v)", v, dirty)
	}
}

func TestImplementationsCatalog(t *testing.T) {
	infos := Implementations()
	if len(infos) == 0 {
		t.Fatal("empty catalog")
	}
	byID := map[string]ImplInfo{}
	for _, info := range infos {
		byID[info.ID] = info
	}
	for _, id := range []string{"fig4", "fig5-fig3", "fig5-constant", "unbounded", "fig3", "constant", "moir", "boundedtag1", "hp", "epoch", "none"} {
		if _, ok := byID[id]; !ok {
			t.Errorf("catalog lacks %q", id)
		}
	}
	if byID["fig4"].Objects(8) != 9 {
		t.Errorf("fig4 m(8) = %d, want 9", byID["fig4"].Objects(8))
	}
	if byID["boundedtag1"].Correct {
		t.Error("the foil is marked correct")
	}

	// Every catalog entry is constructible through its ByID constructor.
	for _, info := range infos {
		switch info.Kind {
		case "detector":
			if _, err := NewDetectingRegisterByID(info.ID, 3, WithValueBits(8)); err != nil {
				t.Errorf("NewDetectingRegisterByID(%q): %v", info.ID, err)
			}
			if _, err := NewLLSCByID(info.ID, 3); err == nil {
				t.Errorf("NewLLSCByID(%q) accepted a detector ID", info.ID)
			}
		case "llsc":
			if _, err := NewLLSCByID(info.ID, 3, WithValueBits(8)); err != nil {
				t.Errorf("NewLLSCByID(%q): %v", info.ID, err)
			}
			if _, err := NewDetectingRegisterByID(info.ID, 3); err == nil {
				t.Errorf("NewDetectingRegisterByID(%q) accepted an llsc ID", info.ID)
			}
		case "structure":
			// Structures construct through their own public constructors
			// (structures.go); the ByID paths must reject them.
			if _, err := NewDetectingRegisterByID(info.ID, 3); err == nil {
				t.Errorf("NewDetectingRegisterByID(%q) accepted a structure ID", info.ID)
			}
			if _, err := NewLLSCByID(info.ID, 3); err == nil {
				t.Errorf("NewLLSCByID(%q) accepted a structure ID", info.ID)
			}
		case "reclaimer":
			// Reclaimers attach to structures (WithReclamation); the ByID
			// paths must reject them.
			if _, err := NewDetectingRegisterByID(info.ID, 3); err == nil {
				t.Errorf("NewDetectingRegisterByID(%q) accepted a reclaimer ID", info.ID)
			}
			if _, err := NewLLSCByID(info.ID, 3); err == nil {
				t.Errorf("NewLLSCByID(%q) accepted a reclaimer ID", info.ID)
			}
		default:
			t.Errorf("%s: unknown kind %q", info.ID, info.Kind)
		}
	}
	if _, err := NewDetectingRegisterByID("no-such-impl", 2); err == nil {
		t.Error("want error for unknown detector ID")
	}
	if _, err := NewLLSCByID("no-such-impl", 2); err == nil {
		t.Error("want error for unknown llsc ID")
	}
}
