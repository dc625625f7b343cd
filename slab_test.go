package abadetect

// Race-enabled coverage for the slab substrates: SlabBackend packs every
// base object into contiguous slabs and PaddedBackend strides the same slabs
// one cache line per object, so concurrent traffic must run over both
// layouts under -race.

import (
	"sync"
	"testing"
)

func TestSlabBackendBasics(t *testing.T) {
	reg, err := NewDetectingRegister(4, WithBackend(SlabBackend()))
	if err != nil {
		t.Fatal(err)
	}
	// The slab layout must not change the model's footprint.
	if fp := reg.Footprint(); fp.Registers != 5 || fp.CASObjects != 0 {
		t.Errorf("slab changed the footprint: %v", fp)
	}
	w, _ := reg.Handle(0)
	r, _ := reg.Handle(1)
	r.DRead()
	w.DWrite(3)
	w.DWrite(7)
	w.DWrite(3)
	if v, dirty := r.DRead(); v != 3 || !dirty {
		t.Errorf("DRead over slab backend = (%d,%v), want (3,true)", v, dirty)
	}
	if _, dirty := r.DRead(); dirty {
		t.Error("spurious dirty on quiet slab register")
	}
}

func TestSlabBackendEveryImplementation(t *testing.T) {
	// Every registered implementation must construct and behave over the
	// slab substrate: correct detectors detect, LL/SC objects link.
	for _, info := range Implementations() {
		switch info.Kind {
		case "detector":
			reg, err := NewDetectingRegisterByID(info.ID, 3, WithValueBits(8), WithBackend(SlabBackend()))
			if err != nil {
				t.Fatalf("%s: %v", info.ID, err)
			}
			if got, want := reg.Footprint().Objects(), info.Objects(3); got != want {
				t.Errorf("%s: slab footprint %d objects, want m(3) = %d", info.ID, got, want)
			}
			if !info.Correct {
				continue
			}
			w, _ := reg.Handle(0)
			r, _ := reg.Handle(1)
			w.DWrite(5)
			w.DWrite(5)
			if v, dirty := r.DRead(); v != 5 || !dirty {
				t.Errorf("%s over slab: DRead = (%d,%v), want (5,true)", info.ID, v, dirty)
			}
		case "llsc":
			obj, err := NewLLSCByID(info.ID, 3, WithValueBits(8), WithBackend(SlabBackend()))
			if err != nil {
				t.Fatalf("%s: %v", info.ID, err)
			}
			h, _ := obj.Handle(0)
			if v := h.LL(); v != 0 {
				t.Errorf("%s over slab: initial LL = %d", info.ID, v)
			}
			if !h.SC(9) {
				t.Errorf("%s over slab: uncontended SC failed", info.ID)
			}
			if got := h.LL(); got != 9 {
				t.Errorf("%s over slab: LL after SC = %d, want 9", info.ID, got)
			}
		}
	}
}

func TestSlabRegisterConcurrent(t *testing.T) {
	// All processes on ONE slab register: over packed slabs writers and
	// readers share cache lines, the hardest case for the devirtualized
	// paths under -race; over padded slabs every word has a line of its own.
	const n = 8
	for _, tc := range []struct {
		name string
		be   Backend
	}{{"slab", SlabBackend()}, {"padded", PaddedBackend()}} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := NewDetectingRegister(n, WithValueBits(16), WithBackend(tc.be))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				h, err := reg.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h DetectHandle) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						if pid%2 == 0 {
							h.DWrite(Word(i & 0xffff))
						} else {
							h.DRead()
						}
					}
				}(pid, h)
			}
			wg.Wait()
		})
	}
}

func TestSlabLLSCConcurrent(t *testing.T) {
	// Counter increments through LL/SC retry loops over the slab substrate:
	// every successful SC is one increment, so the final value is exact.
	const n, perProc = 4, 200
	obj, err := NewLLSCConstantTime(n, WithValueBits(16), WithBackend(SlabBackend()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		h, err := obj.Handle(pid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h LLSCHandle) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				for {
					v := h.LL()
					if h.SC(v + 1) {
						break
					}
				}
			}
		}(h)
	}
	wg.Wait()
	h, _ := obj.Handle(0)
	if got := h.LL(); got != n*perProc {
		t.Errorf("counter over slab = %d, want %d", got, n*perProc)
	}
}
