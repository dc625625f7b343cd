package shmem

import (
	"sync"
	"testing"
	"unsafe"
)

func TestSlabFactoryBasics(t *testing.T) {
	f := NewSlabFactory()
	r := f.NewRegister("R", 7)
	c := f.NewCAS("C", 9)
	if got := r.Read(0); got != 7 {
		t.Errorf("register init = %d, want 7", got)
	}
	if got := c.Read(0); got != 9 {
		t.Errorf("CAS init = %d, want 9", got)
	}
	r.Write(0, 11)
	if got := r.Read(1); got != 11 {
		t.Errorf("register after write = %d, want 11", got)
	}
	if !c.CompareAndSwap(0, 9, 10) {
		t.Error("CAS with correct old failed")
	}
	if c.CompareAndSwap(0, 9, 12) {
		t.Error("CAS with stale old succeeded")
	}
	if fp := f.Footprint(); fp.Registers != 1 || fp.CASObjects != 1 {
		t.Errorf("footprint = %v, want 1 register + 1 CAS", fp)
	}
}

func TestSlabZeroValueIsPacked(t *testing.T) {
	var f SlabFactory
	a := f.NewRegister("a", 0)
	b := f.NewRegister("b", 0)
	da, db := Direct(a), Direct(b)
	if da == nil || db == nil {
		t.Fatal("slab words must devirtualize")
	}
	if d := uintptr(unsafe.Pointer(db)) - uintptr(unsafe.Pointer(da)); d != 8 {
		t.Errorf("packed slab words are %d bytes apart, want 8", d)
	}
}

func TestSlabContiguousLayout(t *testing.T) {
	f := NewSlabFactory()
	words := make([]*slabWord, 16)
	for i := range words {
		words[i] = f.NewRegister("r", Word(i)).(*slabWord)
	}
	base := uintptr(unsafe.Pointer(words[0]))
	for i, w := range words {
		if got := uintptr(unsafe.Pointer(w)) - base; got != uintptr(i)*8 {
			t.Fatalf("object %d is %d bytes from base, want %d", i, got, i*8)
		}
	}
	// Values must not bleed between neighbors.
	for i, w := range words {
		if got := w.Read(0); got != Word(i) {
			t.Errorf("object %d reads %d, want %d", i, got, i)
		}
	}
}

func TestPaddedZeroValueStillPads(t *testing.T) {
	// The seed's zero-value PaddedFactory padded; the slab-backed one must
	// too — the stride is fixed by the methods, not by construction.
	var f PaddedFactory
	a := Direct(f.NewRegister("a", 0))
	b := Direct(f.NewCAS("b", 0))
	d := uintptr(unsafe.Pointer(b)) - uintptr(unsafe.Pointer(a))
	if d != cacheLineBytes {
		t.Errorf("zero-value padded objects are %d bytes apart, want %d", d, cacheLineBytes)
	}
	if addr := uintptr(unsafe.Pointer(a)); addr%cacheLineBytes != 0 {
		t.Errorf("zero-value padded object at %#x is not line-aligned", addr)
	}
}

func TestStripedSlabLayout(t *testing.T) {
	f := NewPaddedFactory()
	a := Direct(f.NewRegister("a", 0))
	b := Direct(f.NewRegister("b", 0))
	d := uintptr(unsafe.Pointer(b)) - uintptr(unsafe.Pointer(a))
	if d != cacheLineBytes {
		t.Errorf("striped objects are %d bytes apart, want %d", d, cacheLineBytes)
	}
	// The no-false-sharing promise needs line-aligned slots, not just
	// line-sized strides; cover several slab rollovers.
	for i := 0; i < 3*slabChunkWords/cacheLineWords+5; i++ {
		w := Direct(f.NewCAS("c", 0))
		if addr := uintptr(unsafe.Pointer(w)); addr%cacheLineBytes != 0 {
			t.Fatalf("striped object %d at %#x is not cache-line aligned", i, addr)
		}
	}
}

func TestSlabGrowthKeepsOldWordsValid(t *testing.T) {
	f := NewSlabFactory()
	var words []Register
	const count = 3*slabChunkWords + 5 // forces several slab rollovers
	for i := 0; i < count; i++ {
		words = append(words, f.NewRegister("r", Word(i)))
	}
	for i, w := range words {
		if got := w.Read(0); got != Word(i) {
			t.Fatalf("object %d reads %d after growth, want %d", i, got, i)
		}
	}
	if fp := f.Footprint(); fp.Registers != count {
		t.Errorf("footprint registers = %d, want %d", fp.Registers, count)
	}
}

func TestSlabFirstChunkIsSmall(t *testing.T) {
	// Every constructed object gets a fresh factory, so a one-word object
	// must not pin a full 4 KiB chunk.
	f := NewSlabFactory()
	f.NewCAS("X", 0)
	if got := len(f.slab); got > slabMinWords {
		t.Errorf("first slab holds %d words, want <= %d", got, slabMinWords)
	}
}

func TestSlabConcurrentAllocation(t *testing.T) {
	f := NewPaddedFactory()
	const goroutines, perG = 8, 200
	words := make([][]WritableCAS, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			words[g] = make([]WritableCAS, perG)
			for i := range words[g] {
				words[g][i] = f.NewCAS("c", Word(g*perG+i))
			}
		}(g)
	}
	wg.Wait()
	seen := map[*slabWord]bool{}
	for g := range words {
		for i, w := range words[g] {
			sw := w.(*slabWord)
			if seen[sw] {
				t.Fatalf("slot handed out twice")
			}
			seen[sw] = true
			if got := w.Read(0); got != Word(g*perG+i) {
				t.Errorf("object (%d,%d) reads %d, want %d", g, i, got, g*perG+i)
			}
		}
	}
	if fp := f.Footprint(); fp.CASObjects != goroutines*perG {
		t.Errorf("footprint CAS = %d, want %d", fp.CASObjects, goroutines*perG)
	}
}

func TestDirectResolvesOnlyDirectSubstrates(t *testing.T) {
	if Direct(NewNativeFactory().NewRegister("r", 0)) == nil {
		t.Error("native register must devirtualize")
	}
	if Direct(NewSlabFactory().NewCAS("c", 0)) == nil {
		t.Error("slab CAS must devirtualize")
	}
	if Direct(NewPaddedFactory().NewRegister("r", 0)) == nil {
		t.Error("padded register must devirtualize")
	}
	// The instrumented wrappers must NOT devirtualize: a bound fast path
	// would silently skip step counting and domain auditing.
	counting := NewCounting(NewNativeFactory(), 2)
	if Direct(counting.NewRegister("r", 0)) != nil {
		t.Error("counted register must not devirtualize")
	}
	audited := NewAudited(NewNativeFactory())
	if Direct(audited.NewCAS("c", 0)) != nil {
		t.Error("audited CAS must not devirtualize")
	}
}

func TestDirectRegistersAllOrNothing(t *testing.T) {
	native := NewNativeFactory()
	counting := NewCounting(NewNativeFactory(), 2)
	all := []Register{native.NewRegister("a", 0), native.NewRegister("b", 0)}
	if got := DirectRegisters(all); got == nil || len(got) != 2 {
		t.Error("all-direct array must resolve")
	}
	mixed := []Register{native.NewRegister("a", 0), counting.NewRegister("b", 0)}
	if DirectRegisters(mixed) != nil {
		t.Error("mixed array must not resolve")
	}
}

func TestNativeFactoryConcurrentFootprint(t *testing.T) {
	f := NewNativeFactory()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					f.NewRegister("r", 0)
				} else {
					f.NewCAS("c", 0)
				}
			}
		}()
	}
	wg.Wait()
	fp := f.Footprint()
	if fp.Registers != goroutines*perG/2 || fp.CASObjects != goroutines*perG/2 {
		t.Errorf("footprint = %v, want %d+%d", fp, goroutines*perG/2, goroutines*perG/2)
	}
}
