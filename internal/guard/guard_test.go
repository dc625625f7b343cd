package guard

import (
	"sync"
	"testing"

	"abadetect/internal/core"
	"abadetect/internal/llsc"
	"abadetect/internal/shmem"
)

// allMakers returns one maker per regime over a fresh native factory.
func allMakers(n int) map[string]Maker {
	return map[string]Maker{
		"raw":      NewMaker(shmem.NewNativeFactory(), n, Raw, 0),
		"tagged4":  NewMaker(shmem.NewNativeFactory(), n, Tagged, 4),
		"llsc":     NewMaker(shmem.NewNativeFactory(), n, LLSC, 0),
		"detector": NewMaker(shmem.NewNativeFactory(), n, Detector, 0),
	}
}

func mustGuard(t *testing.T, mk Maker, name string, bits uint, init Word) Guard {
	t.Helper()
	g, err := mk(name, bits, init)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustHandle(t *testing.T, g Guard, pid int) Handle {
	t.Helper()
	h, err := g.Handle(pid)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLoadCommitSequential(t *testing.T) {
	for name, mk := range allMakers(2) {
		t.Run(name, func(t *testing.T) {
			g := mustGuard(t, mk, "ref", 8, 5)
			h := mustHandle(t, g, 0)
			v, dirty := h.Load()
			if v != 5 || dirty {
				t.Fatalf("first Load = (%d,%v), want (5,false)", v, dirty)
			}
			if !h.Commit(7) {
				t.Fatal("uncontended Commit failed")
			}
			if v, _ := h.Load(); v != 7 {
				t.Fatalf("Load after Commit = %d, want 7", v)
			}
			if got := g.Peek(-1); got != 7 {
				t.Fatalf("Peek = %d, want 7", got)
			}
			if m := g.Metrics(); m.Commits != 1 {
				t.Fatalf("metrics = %s, want 1 commit", m)
			}
		})
	}
}

func TestStoreAndValidate(t *testing.T) {
	for name, mk := range allMakers(2) {
		t.Run(name, func(t *testing.T) {
			g := mustGuard(t, mk, "ref", 8, 0)
			a := mustHandle(t, g, 0)
			b := mustHandle(t, g, 1)
			a.Load()
			if !a.Validate() {
				t.Fatal("Validate right after Load failed")
			}
			b.Store(9)
			if a.Validate() {
				t.Fatal("Validate survived an intervening Store")
			}
			if v, _ := a.Load(); v != 9 {
				t.Fatalf("Load after Store = %d, want 9", v)
			}
		})
	}
}

// TestOwnWriteDirtiesNextLoad pins that a handle's own successful Commit or
// Store leaves it armed at the word it replaced, on every regime: the
// handle's next Load reports dirty and bumps DirtyLoads, and only the Load
// after that is clean again.  A structure that wants its next read of a
// link it wrote to be clean re-arms the handle with a Load inside the write.
func TestOwnWriteDirtiesNextLoad(t *testing.T) {
	for name, mk := range allMakers(2) {
		t.Run(name, func(t *testing.T) {
			g := mustGuard(t, mk, "ref", 8, 5)
			h := mustHandle(t, g, 0)
			h.Load()
			if !h.Commit(7) {
				t.Fatal("uncontended Commit failed")
			}
			if v, dirty := h.Load(); v != 7 || !dirty {
				t.Fatalf("Load after own Commit = (%d,%v), want (7,true)", v, dirty)
			}
			if _, dirty := h.Load(); dirty {
				t.Fatal("second Load after own Commit reported dirty")
			}
			h.Store(9)
			if v, dirty := h.Load(); v != 9 || !dirty {
				t.Fatalf("Load after own Store = (%d,%v), want (9,true)", v, dirty)
			}
			if m := g.Metrics(); m.DirtyLoads != 2 {
				t.Fatalf("metrics = %s, want 2 dirty loads", m)
			}
		})
	}
}

// TestABALadder is the §1 story at guard level: an adversary restores the
// loaded value with exactly 4 writes while the victim is poised; the raw
// guard's stale commit is accepted, a 1- or 2-bit tag wraps and is fooled
// too, a 3-bit tag and the LL/SC and detector guards reject it.
func TestABALadder(t *testing.T) {
	cases := []struct {
		name       string
		mk         func() Maker
		wantFooled bool
	}{
		{"raw", func() Maker { return NewMaker(shmem.NewNativeFactory(), 2, Raw, 0) }, true},
		{"tag1", func() Maker { return NewMaker(shmem.NewNativeFactory(), 2, Tagged, 1) }, true},
		{"tag2", func() Maker { return NewMaker(shmem.NewNativeFactory(), 2, Tagged, 2) }, true},
		{"tag3", func() Maker { return NewMaker(shmem.NewNativeFactory(), 2, Tagged, 3) }, false},
		{"llsc", func() Maker { return NewMaker(shmem.NewNativeFactory(), 2, LLSC, 0) }, false},
		{"detector", func() Maker { return NewMaker(shmem.NewNativeFactory(), 2, Detector, 0) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGuard(t, tc.mk(), "ref", 8, 1)
			victim := mustHandle(t, g, 0)
			adversary := mustHandle(t, g, 1)
			victim.Load() // victim poised at value 1
			for _, v := range []Word{2, 3, 2, 1} {
				adversary.Load()
				if !adversary.Commit(v) {
					t.Fatalf("adversary commit %d failed", v)
				}
			}
			fooled := victim.Commit(9)
			if fooled != tc.wantFooled {
				t.Fatalf("victim commit = %v, want %v", fooled, tc.wantFooled)
			}
			m := g.Metrics()
			if !tc.wantFooled && m.NearMisses == 0 && tc.name != "raw" {
				t.Errorf("ABA prevented but no near-miss recorded: %s", m)
			}
			if tc.name == "raw" && m.NearMisses != 0 {
				t.Errorf("raw guard recorded a near-miss: %s", m)
			}
		})
	}
}

func TestDirtyLoadDetection(t *testing.T) {
	// A pulse (write away, write back) lands between two Loads: the raw
	// guard sees nothing, tagged/llsc/detector report dirty.
	for name, mk := range allMakers(2) {
		t.Run(name, func(t *testing.T) {
			g := mustGuard(t, mk, "flag", 4, 0)
			waiter := mustHandle(t, g, 0)
			signaler := mustHandle(t, g, 1)
			waiter.Load()
			signaler.Store(1)
			signaler.Store(0)
			_, dirty := waiter.Load()
			wantDirty := name != "raw"
			if dirty != wantDirty {
				t.Fatalf("dirty = %v, want %v", dirty, wantDirty)
			}
		})
	}
}

func TestDetectionOnlyGuard(t *testing.T) {
	f := shmem.NewNativeFactory()
	det, err := core.NewRegisterBased(f, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewDetectionOnly(det, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Conditional() {
		t.Fatal("detection-only guard claims Commit support")
	}
	if g.Regime() != Detector {
		t.Fatalf("regime = %v, want detector", g.Regime())
	}
	waiter := mustHandle(t, g, 0)
	signaler := mustHandle(t, g, 1)
	if v, dirty := waiter.Load(); v != 0 || dirty {
		t.Fatalf("initial Load = (%d,%v)", v, dirty)
	}
	signaler.Store(1)
	signaler.Store(0)
	if _, dirty := waiter.Load(); !dirty {
		t.Fatal("detection-only guard missed the pulse")
	}
	if got := g.Peek(-1); got != 0 {
		t.Fatalf("Peek = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Commit on a detection-only guard did not panic")
		}
	}()
	waiter.Commit(1)
}

// TestDetectionOnlyValidateCountsDirty: Validate's DRead is destructive —
// it consumes the dirty signal and re-arms detection — so the write it
// observes must land in DirtyLoads, or a Validate-then-Load sequence would
// under-report a write that did occur.
func TestDetectionOnlyValidateCountsDirty(t *testing.T) {
	f := shmem.NewNativeFactory()
	det, err := core.NewRegisterBased(f, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewDetectionOnly(det, 0)
	if err != nil {
		t.Fatal(err)
	}
	waiter := mustHandle(t, g, 0)
	signaler := mustHandle(t, g, 1)
	waiter.Load()
	if !waiter.Validate() {
		t.Fatal("Validate with no intervening write reported dirty")
	}
	signaler.Store(1)
	signaler.Store(0)
	if waiter.Validate() {
		t.Fatal("Validate missed the pulse")
	}
	if m := g.Metrics(); m.DirtyLoads != 1 {
		t.Fatalf("DirtyLoads = %d, want 1 (Validate consumed the write)", m.DirtyLoads)
	}
	// The destructive DRead re-armed detection: the following Load is clean
	// and must not count the same write again.
	if _, dirty := waiter.Load(); dirty {
		t.Fatal("Load after a destructive Validate reported dirty")
	}
	if m := g.Metrics(); m.DirtyLoads != 1 {
		t.Fatalf("DirtyLoads after clean Load = %d, want 1", m.DirtyLoads)
	}
}

func TestConditionalFlag(t *testing.T) {
	for name, mk := range allMakers(2) {
		g := mustGuard(t, mk, "ref", 8, 0)
		if !g.Conditional() {
			t.Errorf("%s: Conditional() = false, want true", name)
		}
	}
}

func TestTaggedValidation(t *testing.T) {
	f := shmem.NewNativeFactory()
	if _, err := NewTagged(f, 2, "ref", 8, 0, 0); err == nil {
		t.Error("want error for 0 tag bits")
	}
	if _, err := NewTagged(f, 2, "ref", 60, 8, 0); err == nil {
		t.Error("want error for an overfull word")
	}
	if _, err := NewRaw(f, 0, "ref", 0); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := NewLLSC(nil); err == nil {
		t.Error("want error for nil object")
	}
	if _, err := NewDetected(nil); err == nil {
		t.Error("want error for nil object")
	}
	if _, err := NewDetectionOnly(nil, 0); err == nil {
		t.Error("want error for nil detector")
	}
	mk := NewMaker(f, 2, Regime(99), 0)
	if _, err := mk("ref", 8, 0); err == nil {
		t.Error("want error for unknown regime")
	}
	g, err := NewRaw(f, 2, "ref", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Handle(7); err == nil {
		t.Error("want error for out-of-range pid")
	}
}

func TestRegimeString(t *testing.T) {
	for _, tc := range []struct {
		r    Regime
		want string
	}{{Raw, "raw-cas"}, {Tagged, "tagged-cas"}, {LLSC, "ll/sc"}, {Detector, "detector"}, {Regime(0), "unknown"}} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.r), got, tc.want)
		}
	}
}

func TestGuardOverExplicitObjects(t *testing.T) {
	// Guards accept externally-built LL/SC objects, the hook the registry
	// uses to put any registered implementation behind a structure.
	f := shmem.NewNativeFactory()
	obj, err := llsc.NewConstantTime(f, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewDetected(obj)
	if err != nil {
		t.Fatal(err)
	}
	h := mustHandle(t, g, 0)
	if v, _ := h.Load(); v != 2 {
		t.Fatalf("Load = %d, want 2", v)
	}
	if !h.Commit(3) {
		t.Fatal("commit failed")
	}
}

func TestConcurrentCommitsRace(t *testing.T) {
	// Race-detector workout: n goroutines hammer one guard with
	// Load/Commit/Store; for the sound regimes every successful commit is
	// a real transition (checked only for data races and termination here;
	// structure-level accounting lives in internal/apps).
	for name, mk := range allMakers(4) {
		t.Run(name, func(t *testing.T) {
			g := mustGuard(t, mk, "ref", 16, 0)
			var wg sync.WaitGroup
			for pid := 0; pid < 4; pid++ {
				h := mustHandle(t, g, pid)
				wg.Add(1)
				go func(pid int, h Handle) {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						h.Load()
						h.Commit(Word(pid<<8 | i&0xff))
						if i%64 == 0 {
							h.Store(Word(pid))
						}
					}
				}(pid, h)
			}
			wg.Wait()
			m := g.Metrics()
			if m.Commits == 0 {
				t.Errorf("no commit ever succeeded: %s", m)
			}
		})
	}
}
