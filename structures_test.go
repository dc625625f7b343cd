package abadetect_test

import (
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"testing"

	abadetect "abadetect"
)

// publicProtections is the sound half of the public matrix: the regimes a
// concurrent workload must never corrupt.
func publicProtections() []struct {
	name string
	prot abadetect.Protection
} {
	return []struct {
		name string
		prot abadetect.Protection
	}{
		{"tagged", abadetect.ProtectionTagged},
		{"llsc", abadetect.ProtectionLLSC},
		{"detector", abadetect.ProtectionDetector},
	}
}

func TestStructureStackMPMC(t *testing.T) {
	for _, tc := range publicProtections() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			s, err := abadetect.NewStack(n, 16,
				abadetect.WithProtection(tc.prot), abadetect.WithGuardedPool())
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				h, err := s.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h *abadetect.StackHandle) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						h.Push(uint64(pid)<<32 | uint64(i))
						h.Pop()
					}
				}(pid, h)
			}
			wg.Wait()
			if a := s.Audit(); a.Corrupt {
				t.Errorf("audit: %s", a.Detail)
			}
			if m := s.GuardMetrics(); m.Commits == 0 {
				t.Errorf("no head commits recorded: %+v", m)
			}
			if m := s.FreelistMetrics(); m.Commits == 0 {
				t.Errorf("no free-list commits recorded: %+v", m)
			}
		})
	}
}

func TestStructureQueueMPMC(t *testing.T) {
	for _, tc := range publicProtections() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			q, err := abadetect.NewQueue(n, 16, abadetect.WithProtection(tc.prot))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				h, err := q.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h *abadetect.QueueHandle) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						h.Enq(uint64(pid)<<32 | uint64(i))
						h.Deq()
					}
				}(pid, h)
			}
			wg.Wait()
			if a := q.Audit(); a.Corrupt {
				t.Errorf("audit: %s", a.Detail)
			}
		})
	}
}

func TestStructureEventFlagPulse(t *testing.T) {
	// The §1 pulse across the public ladder, including a detection-only
	// Figure 4 guard.
	cases := []struct {
		name      string
		opts      []abadetect.Option
		wantFired bool
	}{
		{"raw", []abadetect.Option{abadetect.WithProtection(abadetect.ProtectionRaw)}, false},
		{"tag1", []abadetect.Option{abadetect.WithProtection(abadetect.ProtectionTagged), abadetect.WithTagBits(1)}, false},
		{"llsc", []abadetect.Option{abadetect.WithProtection(abadetect.ProtectionLLSC)}, true},
		{"detector-fig5", []abadetect.Option{abadetect.WithProtection(abadetect.ProtectionDetector)}, true},
		{"detector-fig4", []abadetect.Option{abadetect.WithProtection(abadetect.ProtectionDetector), abadetect.WithGuardImpl("fig4")}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := abadetect.NewEventFlag(2, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			signaler, err := e.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			waiter, err := e.Handle(1)
			if err != nil {
				t.Fatal(err)
			}
			if set, fired := waiter.Poll(); set || fired {
				t.Fatal("initial poll should be quiet")
			}
			signaler.Signal()
			signaler.Reset()
			_, fired := waiter.Poll()
			if fired != tc.wantFired {
				t.Errorf("fired = %v, want %v", fired, tc.wantFired)
			}
		})
	}
}

func TestStructureRawStackCorruptsDeterministically(t *testing.T) {
	// The §1 script through the public experiment hooks: under ProtectionRaw
	// the victim's stale PopCommit is accepted and the audit shows damage;
	// under the default LL/SC protection the same script is rejected.
	run := func(prot abadetect.Protection) (bool, abadetect.StructureAudit) {
		s, err := abadetect.NewStack(2, 3, abadetect.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		adversary, _ := s.Handle(0)
		victim, _ := s.Handle(1)
		for i := 1; i <= 3; i++ {
			adversary.Push(uint64(100 + i))
		}
		if _, _, empty := victim.PopBegin(); empty {
			t.Fatal("stack unexpectedly empty")
		}
		for i := 0; i < 3; i++ {
			adversary.Pop()
		}
		adversary.Push(104)
		_, fooled := victim.PopCommit()
		return fooled, s.Audit()
	}
	if fooled, audit := run(abadetect.ProtectionRaw); !fooled || !audit.Corrupt {
		t.Errorf("raw: fooled=%v corrupt=%v (%s), want corruption", fooled, audit.Corrupt, audit.Detail)
	}
	if fooled, audit := run(abadetect.ProtectionLLSC); fooled || audit.Corrupt {
		t.Errorf("llsc: fooled=%v corrupt=%v (%s), want rejection", fooled, audit.Corrupt, audit.Detail)
	}
	if fooled, audit := run(abadetect.ProtectionDetector); fooled || audit.Corrupt {
		t.Errorf("detector: fooled=%v corrupt=%v (%s), want rejection", fooled, audit.Corrupt, audit.Detail)
	}
}

func TestStructureBackendsAndImpls(t *testing.T) {
	// The matrix's third axis: structures over every direct backend and a
	// non-default guard implementation.
	for _, be := range []struct {
		name    string
		backend abadetect.Backend
	}{
		{"native", abadetect.NativeBackend()},
		{"slab", abadetect.SlabBackend()},
		{"padded", abadetect.PaddedBackend()},
	} {
		t.Run(be.name, func(t *testing.T) {
			q, err := abadetect.NewQueue(2, 8,
				abadetect.WithBackend(be.backend),
				abadetect.WithProtection(abadetect.ProtectionDetector),
				abadetect.WithGuardImpl("fig5-constant"),
				abadetect.WithGuardedPool())
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if !h.Enq(uint64(i)) {
					t.Fatalf("enq %d failed", i)
				}
				if v, ok := h.Deq(); !ok || v != uint64(i) {
					t.Fatalf("deq = (%d,%v)", v, ok)
				}
			}
			if a := q.Audit(); a.Corrupt {
				t.Errorf("audit: %s", a.Detail)
			}
			if q.Footprint().Objects() == 0 {
				t.Error("empty footprint")
			}
		})
	}
}

func TestStructureOptionValidation(t *testing.T) {
	if _, err := abadetect.NewStack(0, 4); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := abadetect.NewStack(2, 0); err == nil {
		t.Error("want error for capacity=0")
	}
	if _, err := abadetect.NewQueue(2, 4, abadetect.WithGuardImpl("no-such-impl")); err == nil {
		t.Error("want error for unknown guard impl")
	}
	// A register-only detector cannot guard a structure that commits.
	if _, err := abadetect.NewStack(2, 4,
		abadetect.WithProtection(abadetect.ProtectionDetector),
		abadetect.WithGuardImpl("fig4")); err == nil {
		t.Error("want error for a detection-only guard behind a stack")
	}
	// ... but it can guard the event flag.
	if _, err := abadetect.NewEventFlag(2,
		abadetect.WithProtection(abadetect.ProtectionDetector),
		abadetect.WithGuardImpl("fig4")); err != nil {
		t.Errorf("fig4-guarded event flag: %v", err)
	}
	if got := abadetect.ProtectionRaw.String(); got != "raw-cas" {
		t.Errorf("ProtectionRaw = %q", got)
	}
	if got := abadetect.ProtectionDetector.String(); got != "detector" {
		t.Errorf("ProtectionDetector = %q", got)
	}
}

func TestStructureNearMissVisible(t *testing.T) {
	// A prevented ABA surfaces in the public metrics: replay the §1 script
	// under LL/SC and check the near-miss counter.
	s, err := abadetect.NewStack(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	adversary, _ := s.Handle(0)
	victim, _ := s.Handle(1)
	for i := 1; i <= 3; i++ {
		adversary.Push(uint64(100 + i))
	}
	victim.PopBegin()
	for i := 0; i < 3; i++ {
		adversary.Pop()
	}
	adversary.Push(104)
	if _, ok := victim.PopCommit(); ok {
		t.Fatal("stale commit accepted under LL/SC")
	}
	if m := s.GuardMetrics(); m.NearMisses == 0 {
		t.Errorf("prevented ABA not counted: %+v", m)
	}
}

// --- Reclamation (PR 4) ------------------------------------------------------

// TestStructureReclamationMPMC: the public stack and queue stay clean under
// concurrent load with each reclaimer, and the audit surfaces the
// reclamation counters.
func TestStructureReclamationMPMC(t *testing.T) {
	for _, scheme := range []string{"hp", "epoch"} {
		t.Run("stack/"+scheme, func(t *testing.T) {
			const n = 4
			s, err := abadetect.NewStack(n, 16, abadetect.WithReclamation(scheme))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				h, err := s.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h *abadetect.StackHandle) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						h.Push(uint64(pid)<<32 | uint64(i))
						h.Pop()
					}
				}(pid, h)
			}
			wg.Wait()
			a := s.Audit()
			if a.Corrupt {
				t.Errorf("audit: %s", a.Detail)
			}
			if a.Retired == 0 || a.Reclaimed == 0 {
				t.Errorf("reclamation counters empty: %+v", a)
			}
			if a.Deferred != a.Retired-a.Reclaimed {
				t.Errorf("deferred %d != retired %d - reclaimed %d", a.Deferred, a.Retired, a.Reclaimed)
			}
		})
		t.Run("queue/"+scheme, func(t *testing.T) {
			q, err := abadetect.NewQueue(2, 8, abadetect.WithReclamation(scheme))
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if !h.Enq(uint64(i)) {
					t.Fatalf("enq %d failed", i)
				}
				if v, ok := h.Deq(); !ok || v != uint64(i) {
					t.Fatalf("deq = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if a := q.Audit(); a.Corrupt || a.Retired == 0 {
				t.Errorf("audit: %+v", a)
			}
		})
	}
	// Unknown schemes are rejected with the registered IDs in the error.
	if _, err := abadetect.NewStack(2, 4, abadetect.WithReclamation("no-such-scheme")); err == nil {
		t.Error("want error for unknown reclamation scheme")
	}
	// The event flag has no pool; the option is accepted and ignored.
	if _, err := abadetect.NewEventFlag(2, abadetect.WithReclamation("hp")); err != nil {
		t.Errorf("event flag with reclamation: %v", err)
	}
}

// TestStructureExhaustionSurfaced: a saturated pool is visible through the
// audit instead of indistinguishable from livelock — the alloc that finds
// no free node is counted, with and without a reclaimer.
func TestStructureExhaustionSurfaced(t *testing.T) {
	for _, opts := range [][]abadetect.Option{
		nil,
		{abadetect.WithReclamation("hp")},
		{abadetect.WithGuardedPool()},
	} {
		s, err := abadetect.NewStack(1, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Handle(0)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Push(1) || !h.Push(2) {
			t.Fatal("setup pushes failed")
		}
		if h.Push(3) {
			t.Fatal("push beyond capacity succeeded")
		}
		if a := s.Audit(); a.PoolExhaustions == 0 {
			t.Errorf("exhausted alloc not counted: %+v", a)
		}
	}
}

// TestStructureTagBitsValidation covers the WithTagBits edges: an explicit
// zero width and a width that overflows the packed word are rejected with
// descriptive errors; the widest fitting tag still constructs.
func TestStructureTagBitsValidation(t *testing.T) {
	tagged := abadetect.WithProtection(abadetect.ProtectionTagged)
	if _, err := abadetect.NewStack(2, 4, tagged, abadetect.WithTagBits(0)); err == nil {
		t.Error("want error for WithTagBits(0)")
	}
	if _, err := abadetect.NewQueue(2, 4, tagged, abadetect.WithTagBits(0)); err == nil {
		t.Error("want error for WithTagBits(0) on the queue")
	}
	// capacity 4 -> 3 index bits: 61 tag bits fit exactly, 62 overflow.
	if _, err := abadetect.NewStack(2, 4, tagged, abadetect.WithTagBits(61)); err != nil {
		t.Errorf("widest fitting tag rejected: %v", err)
	}
	if _, err := abadetect.NewStack(2, 4, tagged, abadetect.WithTagBits(62)); err == nil {
		t.Error("want error for a tag width that overflows the packed word")
	}
	if _, err := abadetect.NewStack(2, 4, tagged, abadetect.WithTagBits(64)); err == nil {
		t.Error("want error for a 64-bit tag")
	}
	// The default (option absent) still selects the sound 16-bit tag.
	if _, err := abadetect.NewStack(2, 4, tagged); err != nil {
		t.Errorf("default tag width rejected: %v", err)
	}
}

// TestStructureRejectsInvalidSizes: a negative WithGrowth ceiling or
// WithTracing capacity is a constructor error on every structure, never a
// silent fixed or untraced build; 0 still means "off", and a degenerate
// reclamation cadence is rejected too.
func TestStructureRejectsInvalidSizes(t *testing.T) {
	build := map[string]func(...abadetect.Option) error{
		"stack": func(o ...abadetect.Option) error { _, err := abadetect.NewStack(2, 8, o...); return err },
		"queue": func(o ...abadetect.Option) error { _, err := abadetect.NewQueue(2, 8, o...); return err },
		"map":   func(o ...abadetect.Option) error { _, err := abadetect.NewMap(2, 8, o...); return err },
		"event": func(o ...abadetect.Option) error { _, err := abadetect.NewEventFlag(2, o...); return err },
	}
	for name, b := range build {
		if err := b(abadetect.WithGrowth(-1)); err == nil {
			t.Errorf("%s: WithGrowth(-1) accepted", name)
		}
		if err := b(abadetect.WithTracing(-4)); err == nil {
			t.Errorf("%s: WithTracing(-4) accepted", name)
		}
		if err := b(abadetect.WithGrowth(0), abadetect.WithTracing(0)); err != nil {
			t.Errorf("%s: zero growth/tracing rejected: %v", name, err)
		}
	}
	m, err := abadetect.NewMap(2, 8, abadetect.WithGrowth(0), abadetect.WithTracing(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Growing() || m.StructureTrace() != nil {
		t.Errorf("zero options built growing=%v traced=%v, want neither", m.Growing(), m.StructureTrace() != nil)
	}
	for _, scheme := range []string{"epoch:0", "epoch:64"} {
		if _, err := abadetect.NewMap(2, 8, abadetect.WithReclamation(scheme)); err == nil {
			t.Errorf("%s accepted", scheme)
		}
	}
}

// TestStructureWaitFreeReadPath drives the exported wait-free observers:
// stack and queue Peek/IsEmpty are non-consuming across every regime, and
// the map's read-path audit counters surface through StructureAudit.
func TestStructureWaitFreeReadPath(t *testing.T) {
	for _, p := range publicProtections() {
		t.Run(p.name, func(t *testing.T) {
			s, err := abadetect.NewStack(2, 8, abadetect.WithProtection(p.prot))
			if err != nil {
				t.Fatal(err)
			}
			sh, err := s.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			if !sh.IsEmpty() {
				t.Error("fresh stack not empty")
			}
			sh.Push(42)
			if v, ok := sh.Peek(); !ok || v != 42 {
				t.Fatalf("stack Peek = (%d,%v), want (42,true)", v, ok)
			}
			if v, ok := sh.Pop(); !ok || v != 42 {
				t.Errorf("Pop after Peek = (%d,%v): Peek consumed the element", v, ok)
			}

			q, err := abadetect.NewQueue(2, 8, abadetect.WithProtection(p.prot))
			if err != nil {
				t.Fatal(err)
			}
			qh, err := q.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			if !qh.IsEmpty() {
				t.Error("fresh queue not empty")
			}
			qh.Enq(7)
			qh.Enq(8)
			if v, ok := qh.Peek(); !ok || v != 7 {
				t.Fatalf("queue Peek = (%d,%v), want (7,true)", v, ok)
			}
			if v, ok := qh.Deq(); !ok || v != 7 {
				t.Errorf("Deq after Peek = (%d,%v): Peek consumed the front", v, ok)
			}
		})
	}

	m, err := abadetect.NewMap(2, 16, abadetect.WithReclamation("hp"))
	if err != nil {
		t.Fatal(err)
	}
	mh, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if !mh.Put(7, 700) {
		t.Fatal("Put declined")
	}
	for i := 0; i < 100; i++ {
		if v, ok := mh.Get(7); !ok || v != 700 {
			t.Fatalf("Get = (%d,%v), want (700,true)", v, ok)
		}
	}
	a := m.Audit()
	if a.Corrupt {
		t.Errorf("audit corrupt: %s", a.Detail)
	}
	// Uncontended reads never tear: the exported counters exist and stay 0.
	if a.ReadRetries != 0 || a.ReadFallbacks != 0 {
		t.Errorf("uncontended reads counted retries=%d fallbacks=%d, want 0/0", a.ReadRetries, a.ReadFallbacks)
	}
}

// TestStructureMapGrowth drives the public growth seam: a map built
// WithGrowth starts small, crosses its segment-append and directory-split
// thresholds under concurrent keyed traffic, and stays structurally clean
// with every binding intact — while the resize counters surface through
// Audit and the capacity accessors report the moving figure against the
// fixed ceiling.
func TestStructureMapGrowth(t *testing.T) {
	for _, tc := range publicProtections() {
		t.Run(tc.name, func(t *testing.T) {
			const (
				n       = 4
				initial = 32
				ceiling = 4096
				keys    = 600
			)
			m, err := abadetect.NewMap(n, initial,
				abadetect.WithProtection(tc.prot),
				abadetect.WithGrowth(ceiling),
				abadetect.WithReclamation("hp"))
			if err != nil {
				t.Fatal(err)
			}
			if !m.Growing() || m.MaxCapacity() != ceiling {
				t.Fatalf("Growing=%v MaxCapacity=%d, want true/%d", m.Growing(), m.MaxCapacity(), ceiling)
			}
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				h, err := m.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h *abadetect.MapHandle) {
					defer wg.Done()
					for k := pid; k < keys; k += n {
						if !h.Put(uint64(k), uint64(1000+k)) {
							t.Errorf("Put(%d) declined mid-growth", k)
							return
						}
						if v, ok := h.Get(uint64(k)); !ok || v != uint64(1000+k) {
							t.Errorf("Get(%d) = (%d,%v) right after Put", k, v, ok)
							return
						}
					}
				}(pid, h)
			}
			wg.Wait()
			if got := m.Capacity(); got <= initial || got > ceiling {
				t.Errorf("Capacity = %d, want grown within (%d, %d]", got, initial, ceiling)
			}
			h, err := m.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < keys; k++ {
				if v, ok := h.Get(uint64(k)); !ok || v != uint64(1000+k) {
					t.Fatalf("Get(%d) = (%d,%v) after growth, want (%d,true)", k, v, ok, 1000+k)
				}
			}
			a := m.Audit()
			if a.Corrupt {
				t.Fatalf("audit corrupt after growth: %s", a.Detail)
			}
			if a.SegmentAppends == 0 {
				t.Errorf("no segment appends recorded: %s", a.Detail)
			}
			if a.Splits == 0 {
				t.Errorf("no directory splits recorded: %s", a.Detail)
			}
		})
	}
}

// TestStructureMapGrowthTagWidth: the tag-width check prices the ceiling,
// not the initial capacity — a tag that fits the small map must be rejected
// when the growth ceiling's reference bits would no longer share the word.
func TestStructureMapGrowthTagWidth(t *testing.T) {
	// 16 initial nodes need 6 reference bits (index+mark); a 2^40 ceiling
	// needs 42.  A 32-bit tag fits the former and must be rejected against
	// the latter.
	if _, err := abadetect.NewMap(2, 16,
		abadetect.WithProtection(abadetect.ProtectionTagged),
		abadetect.WithTagBits(32)); err != nil {
		t.Fatalf("32-bit tag on the fixed map rejected: %v", err)
	}
	if _, err := abadetect.NewMap(2, 16,
		abadetect.WithProtection(abadetect.ProtectionTagged),
		abadetect.WithTagBits(32),
		abadetect.WithGrowth(1<<40)); err == nil {
		t.Fatal("32-bit tag accepted against a 2^40 growth ceiling")
	}
}

// TestStructureGrowthCeilingIgnoredByStackAndQueue: WithGrowth is the map's
// ceiling, and the stack and queue accept it and ignore it — so it must not
// size their reclaimers either.  A build with a 2^19-node ceiling must hold
// no more than 1 MB of live heap beyond the same build without one; a
// reclaimer sized for the ceiling holds several MB of per-process buffers.
func TestStructureGrowthCeilingIgnoredByStackAndQueue(t *testing.T) {
	const ceiling = 1 << 19
	builds := []struct {
		name  string
		build func(opts ...abadetect.Option) ([]any, error)
	}{
		{"stack", func(opts ...abadetect.Option) ([]any, error) {
			s, err := abadetect.NewStack(2, 64, opts...)
			if err != nil {
				return nil, err
			}
			live := []any{s}
			for pid := 0; pid < 2; pid++ {
				h, err := s.Handle(pid)
				if err != nil {
					return nil, err
				}
				live = append(live, h)
			}
			return live, nil
		}},
		{"queue", func(opts ...abadetect.Option) ([]any, error) {
			q, err := abadetect.NewQueue(2, 64, opts...)
			if err != nil {
				return nil, err
			}
			live := []any{q}
			for pid := 0; pid < 2; pid++ {
				h, err := q.Handle(pid)
				if err != nil {
					return nil, err
				}
				live = append(live, h)
			}
			return live, nil
		}},
	}
	liveHeap := func(build func(...abadetect.Option) ([]any, error), opts ...abadetect.Option) int64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		live, err := build(opts...)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(live)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	for _, b := range builds {
		for _, scheme := range []string{"hp", "epoch"} {
			t.Run(b.name+"+"+scheme, func(t *testing.T) {
				base := liveHeap(b.build, abadetect.WithReclamation(scheme))
				grown := liveHeap(b.build, abadetect.WithReclamation(scheme), abadetect.WithGrowth(ceiling))
				if extra := grown - base; extra > 1<<20 {
					t.Errorf("WithGrowth(%d) adds %d KB of live heap to a 64-node %s, want at most 1024 KB", ceiling, extra>>10, b.name)
				}
			})
		}
	}
}

// TestStructureMapTagWidthBoundary pins the map's widest tag.  A link word
// names every node and every bucket dummy, so a 16-node map (16 buckets)
// needs 7 reference bits: 57 tag bits build, and 58 are rejected by the
// validator, not deep inside guard construction.
func TestStructureMapTagWidthBoundary(t *testing.T) {
	tagged := abadetect.WithProtection(abadetect.ProtectionTagged)
	if _, err := abadetect.NewMap(2, 16, tagged, abadetect.WithTagBits(57)); err != nil {
		t.Fatalf("57-bit tag on a 16-node map rejected: %v", err)
	}
	_, err := abadetect.NewMap(2, 16, tagged, abadetect.WithTagBits(58))
	if err == nil || !strings.Contains(err.Error(), "WithTagBits(58)") {
		t.Fatalf("58-bit tag on a 16-node map: err = %v, want the validator's WithTagBits error", err)
	}
}

// TestStructureFootprintsMatchRegistry checks every structure's Footprint
// against the space formula its registry entry states, which the case
// quotes and evaluates.  Each guard regime here costs one base object per
// guard (a raw or tagged CAS word, Figure 3's LL/SC word, the Figure 5
// detector over it), and hazard pointers add the hp entry's n·H registers.
// Both capacities are powers of two, so a map's directory B is its capacity.
func TestStructureFootprintsMatchRegistry(t *testing.T) {
	const n = 2
	space := map[string]string{}
	hpObjects := 0
	for _, im := range abadetect.Implementations() {
		space[im.ID] = im.Space
		if im.ID == "hp" {
			hpObjects = im.Objects(n)
		}
	}
	type footprinter interface{ Footprint() abadetect.Footprint }
	type build func(capacity int, opts ...abadetect.Option) (footprinter, error)
	stack := func(c int, opts ...abadetect.Option) (footprinter, error) {
		s, err := abadetect.NewStack(n, c, opts...)
		return s, err
	}
	queue := func(c int, opts ...abadetect.Option) (footprinter, error) {
		q, err := abadetect.NewQueue(n, c, opts...)
		return q, err
	}
	// growMap builds a map whose ceiling is times its capacity (0: fixed).
	growMap := func(times int) build {
		return func(c int, opts ...abadetect.Option) (footprinter, error) {
			m, err := abadetect.NewMap(n, c, append(opts, abadetect.WithGrowth(times*c))...)
			return m, err
		}
	}
	// mapObjects evaluates the map's formula with B = cap.  The largest
	// directory a map may split to is floorPow2(ceiling/6).
	mapObjects := func(times int) func(c int) int {
		return func(c int) int {
			objects := c + c + 2*c
			if ceiling := times * c; ceiling > c {
				objects++ // the capacity word
				if dir := 1 << (bits.Len(uint(ceiling/6)) - 1); dir > c {
					objects++ // the size word
				}
			}
			return objects
		}
	}
	const mapSpace = "B + cap guards + 2·cap registers, plus a capacity word when the ceiling exceeds cap and a size word when floorPow2(ceiling/6) exceeds B (cap, B grow geometrically to the ceiling)"
	for _, tc := range []struct {
		name, id, space string
		build           build
		objects         func(c int) int
	}{
		{"stack", "stack", "2·cap registers + 1 guard", stack, func(c int) int { return 2*c + 1 }},
		{"queue", "queue", "(cap+1) registers + (cap+3) guards", queue, func(c int) int { return (c + 1) + (c + 3) }},
		{"map", "map", mapSpace, growMap(0), mapObjects(0)},
		// A 4x ceiling adds the capacity word only: its directory never
		// outgrows B.  A 64x ceiling adds the size word too.
		{"map/grow4x", "map", mapSpace, growMap(4), mapObjects(4)},
		{"map/grow64x", "map", mapSpace, growMap(64), mapObjects(64)},
	} {
		if space[tc.id] != tc.space {
			t.Errorf("%s: registry states %q, the checked formula is %q", tc.name, space[tc.id], tc.space)
		}
		for _, g := range []struct {
			name string
			prot abadetect.Protection
		}{
			{"raw", abadetect.ProtectionRaw},
			{"tag16", abadetect.ProtectionTagged},
			{"llsc:fig3", abadetect.ProtectionLLSC},
			{"detector:fig5-fig3", abadetect.ProtectionDetector},
		} {
			for _, hp := range []bool{false, true} {
				for _, c := range []int{8, 64} {
					opts := []abadetect.Option{abadetect.WithProtection(g.prot)}
					want := tc.objects(c)
					if hp {
						opts = append(opts, abadetect.WithReclamation("hp"))
						want += hpObjects
					}
					s, err := tc.build(c, opts...)
					if err != nil {
						t.Fatalf("%s/%s/hp=%v cap=%d: %v", tc.name, g.name, hp, c, err)
					}
					if fp := s.Footprint(); fp.Objects() != want {
						t.Errorf("%s/%s/hp=%v cap=%d: %d objects (%v), formula says %d", tc.name, g.name, hp, c, fp.Objects(), fp, want)
					}
				}
			}
		}
	}
}
