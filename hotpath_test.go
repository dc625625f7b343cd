package abadetect

// Hot-path micro-benchmarks and zero-allocation guards for every registered
// implementation on the direct substrates (native and slab).  These are the
// per-operation costs behind the paper's t(n): BenchmarkHotPath isolates
// each operation, TestHotPathAllocs pins every one of them to 0 allocs/op
// so an accidental interface boxing or slice growth on a hot path fails CI
// instead of quietly eating throughput.
//
// Run with: go test -bench HotPath -benchmem

import (
	"fmt"
	"testing"
	"time"

	"abadetect/internal/load"
)

// hotBackends are the direct substrates the devirtualized fast paths bind
// on; the instrumented backends intentionally stay on the interface path
// and are exempt from these guards.
func hotBackends() map[string]Backend {
	return map[string]Backend{
		"native": NativeBackend(),
		"slab":   SlabBackend(),
		"padded": PaddedBackend(),
	}
}

const hotProcs = 8

// hotPools are the two node pools a structure can run on: the default mutex
// FIFO pool, whose free ring is preallocated, and the guarded lock-free
// pool (WithGuardedPool).
var hotPools = []struct {
	name string
	opts []Option
}{
	{"fifo", nil},
	{"guarded", []Option{WithGuardedPool()}},
}

// TestHotPathAllocs asserts that every hot operation of every registered
// implementation — DWrite and DRead for detectors, LL, SC, and VL for
// LL/SC/VL objects — performs zero heap allocations per call on both direct
// substrates.
func TestHotPathAllocs(t *testing.T) {
	for beName, be := range hotBackends() {
		for _, info := range Implementations() {
			t.Run(beName+"/"+info.ID, func(t *testing.T) {
				switch info.Kind {
				case "detector":
					reg, err := NewDetectingRegisterByID(info.ID, hotProcs, WithValueBits(16), WithBackend(be))
					if err != nil {
						t.Fatal(err)
					}
					w, err := reg.Handle(0)
					if err != nil {
						t.Fatal(err)
					}
					r, err := reg.Handle(1)
					if err != nil {
						t.Fatal(err)
					}
					var i Word
					if got := testing.AllocsPerRun(200, func() {
						w.DWrite(i & 0xffff)
						i++
					}); got != 0 {
						t.Errorf("DWrite allocates %.1f/op, want 0", got)
					}
					if got := testing.AllocsPerRun(200, func() {
						r.DRead()
					}); got != 0 {
						t.Errorf("DRead allocates %.1f/op, want 0", got)
					}
				case "llsc":
					obj, err := NewLLSCByID(info.ID, hotProcs, WithValueBits(16), WithBackend(be))
					if err != nil {
						t.Fatal(err)
					}
					h, err := obj.Handle(0)
					if err != nil {
						t.Fatal(err)
					}
					if got := testing.AllocsPerRun(200, func() {
						v := h.LL()
						if !h.SC((v + 1) & 0xffff) {
							t.Fatal("uncontended SC failed")
						}
					}); got != 0 {
						t.Errorf("LL+SC allocates %.1f/op, want 0", got)
					}
					if got := testing.AllocsPerRun(200, func() {
						h.VL()
					}); got != 0 {
						t.Errorf("VL allocates %.1f/op, want 0", got)
					}
				case "structure":
					structureAllocs(t, info.ID, be)
				case "reclaimer":
					reclaimerAllocs(t, info.ID, be)
				default:
					t.Fatalf("unknown kind %q", info.Kind)
				}
			})
		}
	}
}

// structureAllocs pins the structures' steady-state operations to zero
// allocations: push/pop and enq/deq pairs and the map's put/get/delete
// cycle on each of hotPools, and signal/reset/poll for the event flag,
// which has no pool.
func structureAllocs(t *testing.T, id string, be Backend) {
	t.Helper()
	if id == "event" {
		e, err := NewEventFlag(hotProcs, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		sig, err := e.Handle(0)
		if err != nil {
			t.Fatal(err)
		}
		poll, err := e.Handle(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			sig.Signal()
			poll.Poll()
			sig.Reset()
			poll.Poll()
		}); got != 0 {
			t.Errorf("pulse+poll allocates %.1f/op, want 0", got)
		}
		return
	}
	for _, pool := range hotPools {
		t.Run(pool.name, func(t *testing.T) {
			opts := append([]Option{WithBackend(be)}, pool.opts...)
			switch id {
			case "stack":
				s, err := NewStack(hotProcs, 8, opts...)
				if err != nil {
					t.Fatal(err)
				}
				h, err := s.Handle(0)
				if err != nil {
					t.Fatal(err)
				}
				var i Word
				if got := testing.AllocsPerRun(200, func() {
					h.Push(i)
					h.Pop()
					i++
				}); got != 0 {
					t.Errorf("Push+Pop allocates %.1f/op, want 0", got)
				}
			case "queue":
				q, err := NewQueue(hotProcs, 8, opts...)
				if err != nil {
					t.Fatal(err)
				}
				h, err := q.Handle(0)
				if err != nil {
					t.Fatal(err)
				}
				var i Word
				if got := testing.AllocsPerRun(200, func() {
					h.Enq(i)
					h.Deq()
					i++
				}); got != 0 {
					t.Errorf("Enq+Deq allocates %.1f/op, want 0", got)
				}
			case "map":
				m, err := NewMap(hotProcs, 16, opts...)
				if err != nil {
					t.Fatal(err)
				}
				h, err := m.Handle(0)
				if err != nil {
					t.Fatal(err)
				}
				var i Word
				if got := testing.AllocsPerRun(200, func() {
					h.Put(i&7, i)
					h.Get(i & 7)
					h.Delete(i & 7)
					i++
				}); got != 0 {
					t.Errorf("Put+Get+Delete allocates %.1f/op, want 0", got)
				}
			default:
				t.Fatalf("unknown structure %q", id)
			}
		})
	}
}

// reclaimerAllocs pins the reclamation-wrapped hot path to zero
// allocations: a raw-guarded stack on each of hotPools whose every pop
// publishes a protection (hp slot write / epoch pin), validates, retires,
// and amortizes a scan — all on preallocated state.  This is the
// whole-stack version of the reclaim package's own Protect/Clear guard.
func reclaimerAllocs(t *testing.T, scheme string, be Backend) {
	t.Helper()
	for _, pool := range hotPools {
		t.Run(pool.name, func(t *testing.T) {
			opts := append([]Option{WithBackend(be),
				WithProtection(ProtectionRaw), WithReclamation(scheme)}, pool.opts...)
			s, err := NewStack(hotProcs, 16, opts...)
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			var i Word
			if got := testing.AllocsPerRun(200, func() {
				h.Push(i)
				h.Pop()
				i++
			}); got != 0 {
				t.Errorf("Push+Pop under %s reclamation allocates %.1f/op, want 0", scheme, got)
			}
		})
	}
}

// TestHotPathAllocsMapRegimes pins the map's Get/Put/Delete cycle at zero
// allocations on the slab backend under every sound protection regime, both
// with immediate reuse and through the reclaimers, on each of hotPools —
// the traffic layer's hot path must not pay the heap for its guards, its
// marks, or its hazards.
func TestHotPathAllocsMapRegimes(t *testing.T) {
	regimes := []struct {
		name string
		opts []Option
	}{
		{"tag16", []Option{WithProtection(ProtectionTagged), WithTagBits(16)}},
		{"llsc", []Option{WithProtection(ProtectionLLSC)}},
		{"detector", []Option{WithProtection(ProtectionDetector)}},
	}
	for _, re := range regimes {
		// epoch:auto rides along to pin the adaptive cadence bookkeeping and
		// the kv batched-retire flush (RetireBatch) to the same zero.
		for _, scheme := range []string{"none", "hp", "epoch", "epoch:auto"} {
			t.Run(re.name+"+"+scheme, func(t *testing.T) {
				for _, pool := range hotPools {
					t.Run(pool.name, func(t *testing.T) {
						opts := append([]Option{WithBackend(SlabBackend()),
							WithReclamation(scheme)}, re.opts...)
						m, err := NewMap(hotProcs, 16, append(opts, pool.opts...)...)
						if err != nil {
							t.Fatal(err)
						}
						h, err := m.Handle(0)
						if err != nil {
							t.Fatal(err)
						}
						var i Word
						if got := testing.AllocsPerRun(200, func() {
							h.Put(i&7, i)
							h.Get(i & 7)
							h.Delete(i & 7)
							i++
						}); got != 0 {
							t.Errorf("map cycle allocates %.1f/op, want 0", got)
						}
					})
				}
			})
		}
	}
	// A map that has grown: 200 keys split its directory and appended node
	// segments up to the 256-node ceiling, so the free nodes the cycle
	// recycles, and every node its walks pass, lie past the first segment —
	// the grown-segment path of every node and handle lookup.
	t.Run("llsc+hp+grown", func(t *testing.T) {
		for _, pool := range hotPools {
			t.Run(pool.name, func(t *testing.T) {
				opts := []Option{WithBackend(SlabBackend()), WithReclamation("hp"), WithGrowth(256)}
				m, err := NewMap(hotProcs, 16, append(opts, pool.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				h, err := m.Handle(0)
				if err != nil {
					t.Fatal(err)
				}
				for k := Word(1000); k < 1200; k++ {
					if !h.Put(k, k) {
						t.Fatalf("fill Put(%d) failed", k)
					}
				}
				if a := m.Audit(); a.Splits == 0 || a.SegmentAppends == 0 {
					t.Fatalf("fill did not grow the map: splits=%d appends=%d", a.Splits, a.SegmentAppends)
				}
				var i Word
				if got := testing.AllocsPerRun(200, func() {
					h.Put(i&7, i)
					h.Get(i & 7)
					h.Get(1000 + i&127)
					h.Delete(i & 7)
					i++
				}); got != 0 {
					t.Errorf("grown map cycle allocates %.1f/op, want 0", got)
				}
			})
		}
	})
}

// TestHotPathAllocsTracing pins the flight recorder's two promises: with
// tracing OFF the structures are byte-identical to the untraced builds
// (every other test in this file is that pin — no recorder is attached
// anywhere above), and with tracing ON every recorded event is written into
// the preallocated ring without touching the heap.  Event recording that
// allocates would perturb exactly the interleavings it exists to capture.
func TestHotPathAllocsTracing(t *testing.T) {
	t.Run("stack+trace", func(t *testing.T) {
		s, err := NewStack(hotProcs, 8,
			WithBackend(SlabBackend()), WithGuardedPool(), WithTracing(64))
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Handle(0)
		if err != nil {
			t.Fatal(err)
		}
		var i Word
		if got := testing.AllocsPerRun(200, func() {
			h.Push(i)
			h.Pop()
			i++
		}); got != 0 {
			t.Errorf("traced Push+Pop allocates %.1f/op, want 0", got)
		}
		if len(s.StructureTrace()) == 0 {
			t.Error("the traced cycle recorded nothing")
		}
	})
	t.Run("map+trace+reclaim", func(t *testing.T) {
		// The deepest instrumented path: guard events, op hooks, retire/alloc
		// events, and the epoch reclaimer's scan/advance events all fire.
		m, err := NewMap(hotProcs, 16,
			WithBackend(SlabBackend()), WithGuardedPool(),
			WithProtection(ProtectionLLSC), WithReclamation("epoch:auto"), WithTracing(64))
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.Handle(0)
		if err != nil {
			t.Fatal(err)
		}
		var i Word
		if got := testing.AllocsPerRun(200, func() {
			h.Put(i&7, i)
			h.Get(i & 7)
			h.Delete(i & 7)
			i++
		}); got != 0 {
			t.Errorf("traced map cycle allocates %.1f/op, want 0", got)
		}
	})
}

// TestHotPathAllocsLoadRecord pins the load generator's measurement path:
// recording a latency sample and drawing the next keyed op must stay off
// the heap, or the generator would perturb the workload it measures.
func TestHotPathAllocsLoadRecord(t *testing.T) {
	var h load.Hist
	if got := testing.AllocsPerRun(500, func() {
		h.Record(time.Microsecond)
	}); got != 0 {
		t.Errorf("Hist.Record allocates %.1f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(500, func() {
		h.Quantile(0.99)
	}); got != 0 {
		t.Errorf("Hist.Quantile allocates %.1f/op, want 0", got)
	}
}

// BenchmarkHotPath measures each hot operation of each registered
// implementation in isolation, plus the interleaved write+read pair the E10
// throughput experiment times, on both direct substrates.
func BenchmarkHotPath(b *testing.B) {
	for _, beName := range []string{"native", "slab"} {
		be := hotBackends()[beName]
		for _, info := range Implementations() {
			switch info.Kind {
			case "detector":
				benchDetectorOps(b, beName, info.ID, be)
			case "llsc":
				benchLLSCOps(b, beName, info.ID, be)
			}
		}
	}
}

func benchDetectorOps(b *testing.B, beName, id string, be Backend) {
	newReg := func(b *testing.B) (DetectHandle, DetectHandle) {
		reg, err := NewDetectingRegisterByID(id, hotProcs, WithValueBits(16), WithBackend(be))
		if err != nil {
			b.Fatal(err)
		}
		w, err := reg.Handle(0)
		if err != nil {
			b.Fatal(err)
		}
		r, err := reg.Handle(1)
		if err != nil {
			b.Fatal(err)
		}
		return w, r
	}
	b.Run(fmt.Sprintf("%s/%s/DWrite", beName, id), func(b *testing.B) {
		w, _ := newReg(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.DWrite(Word(i & 0xffff))
		}
	})
	b.Run(fmt.Sprintf("%s/%s/DRead", beName, id), func(b *testing.B) {
		_, r := newReg(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.DRead()
		}
	})
	b.Run(fmt.Sprintf("%s/%s/pair", beName, id), func(b *testing.B) {
		w, r := newReg(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.DWrite(Word(i & 0xffff))
			r.DRead()
		}
	})
}

func benchLLSCOps(b *testing.B, beName, id string, be Backend) {
	newObj := func(b *testing.B) LLSCHandle {
		obj, err := NewLLSCByID(id, hotProcs, WithValueBits(16), WithBackend(be))
		if err != nil {
			b.Fatal(err)
		}
		h, err := obj.Handle(0)
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	b.Run(fmt.Sprintf("%s/%s/LL+SC", beName, id), func(b *testing.B) {
		h := newObj(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := h.LL()
			if !h.SC((v + 1) & 0xffff) {
				b.Fatal("uncontended SC failed")
			}
		}
	})
	b.Run(fmt.Sprintf("%s/%s/VL", beName, id), func(b *testing.B) {
		h := newObj(b)
		h.LL()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.VL()
		}
	})
}
