package guard

import (
	"testing"

	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// TestTracedGuardEvents drives a traced tagged guard through a load/commit/
// near-miss script and checks the ring carries the right vocabulary.
func TestTracedGuardEvents(t *testing.T) {
	rec := trace.New(2, 32)
	mk := TracedMaker(NewMaker(shmem.NewNativeFactory(), 2, Tagged, 8), rec)
	g, err := mk("head", 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := g.Handle(0)
	adversary, _ := g.Handle(1)

	if v, _ := victim.Load(); v != 5 {
		t.Fatalf("load: got %d", v)
	}
	// Adversary cycles the value away and back: same value, bumped tag.
	adversary.Store(9)
	adversary.Store(5)
	if victim.Commit(7) {
		t.Fatal("stale commit succeeded on a tagged guard")
	}

	evs := rec.Events(0)
	if len(evs) != 2 {
		t.Fatalf("victim ring: got %d events, want 2: %v", len(evs), evs)
	}
	if evs[0].Kind != trace.KindGuardLoad || evs[0].A != 5 || evs[0].Obj != "head" {
		t.Fatalf("event 0: %v, want clean load of 5 on head", evs[0])
	}
	if evs[1].Kind != trace.KindGuardNearMiss || evs[1].A != 7 {
		t.Fatalf("event 1: %v, want near-miss attempting 7", evs[1])
	}

	// The traced wrapper must not distort the underlying audit counters.
	m := g.Metrics()
	if m.Rejected != 1 || m.NearMisses != 1 {
		t.Fatalf("metrics through wrapper: %v", m)
	}
	if g.Regime() != Tagged || !g.Conditional() {
		t.Fatal("wrapper does not delegate Regime/Conditional")
	}
}

// failOnceFactory hands out CAS words whose first CompareAndSwap fails
// without writing, as if another process had moved the word and restored it
// around the caller's CAS.
type failOnceFactory struct{ shmem.NativeFactory }

func (f *failOnceFactory) NewCAS(name string, init Word) shmem.WritableCAS {
	return &failOnceCAS{WritableCAS: f.NativeFactory.NewCAS(name, init)}
}

type failOnceCAS struct {
	shmem.WritableCAS
	failed bool
}

func (c *failOnceCAS) CompareAndSwap(pid int, old, new Word) bool {
	if !c.failed {
		c.failed = true
		return false
	}
	return c.WritableCAS.CompareAndSwap(pid, old, new)
}

// TestTracedRawReject checks that a raw guard's rejection traces as a
// reject even when the word reads equal to the loaded value afterwards: the
// raw regime never counts a near-miss, and the dump must agree with its
// metrics.
func TestTracedRawReject(t *testing.T) {
	rec := trace.New(1, 32)
	mk := TracedMaker(NewMaker(&failOnceFactory{}, 1, Raw, 0), rec)
	g, err := mk("x", 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := g.Handle(0)
	h.Load()
	if h.Commit(6) {
		t.Fatal("commit succeeded through a failing CAS")
	}
	evs := rec.Events(0)
	if len(evs) != 2 || evs[1].Kind != trace.KindGuardReject || evs[1].A != 6 || evs[1].B != 5 {
		t.Fatalf("events: %v, want a load then a reject of 6 over 5", evs)
	}
	if m := g.Metrics(); m.Rejected != 1 || m.NearMisses != 0 {
		t.Fatalf("metrics: %v, want one rejection and no near-miss", m)
	}
}

// TestTracedGuardDirtyLoad checks the dirty-load classification: a reload
// after interference records KindGuardDirtyLoad instead of KindGuardLoad.
func TestTracedGuardDirtyLoad(t *testing.T) {
	rec := trace.New(2, 32)
	mk := TracedMaker(NewMaker(shmem.NewNativeFactory(), 2, Raw, 0), rec)
	g, err := mk("x", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := g.Handle(0)
	h1, _ := g.Handle(1)
	h0.Load()
	h1.Store(2)
	h0.Load()

	evs := rec.Events(0)
	if len(evs) != 2 || evs[0].Kind != trace.KindGuardLoad || evs[1].Kind != trace.KindGuardDirtyLoad {
		t.Fatalf("events: %v, want clean load then dirty load", evs)
	}
}

// TestTracedMakerNil pins the off-switch: a nil recorder returns the maker
// unwrapped, so tracing-off configurations carry no wrapper at all.
func TestTracedMakerNil(t *testing.T) {
	mk := NewMaker(shmem.NewNativeFactory(), 1, Raw, 0)
	g, err := TracedMaker(mk, nil)("x", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.(*tracedGuard); ok {
		t.Fatal("nil recorder still wrapped the guard")
	}
}

// TestTracedGuardAllocs pins tracing-on guard steps at zero heap allocs.
func TestTracedGuardAllocs(t *testing.T) {
	rec := trace.New(1, 64)
	mk := TracedMaker(NewMaker(shmem.NewNativeFactory(), 1, Tagged, 8), rec)
	g, err := mk("head", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := g.Handle(0)
	if got := testing.AllocsPerRun(200, func() {
		v, _ := h.Load()
		h.Commit(v + 1)
	}); got != 0 {
		t.Fatalf("traced load+commit allocates: %v allocs/op, want 0", got)
	}
}
