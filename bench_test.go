package abadetect

// Benchmarks for the experiments of README's Experiment index (E1–E17): one
// testing.B benchmark each for E1–E9, BenchmarkSuiteTables for the whole
// suite, plus head-to-head throughput comparisons of every implementation.
// The heavy experiment machinery (model checking, adversarial schedules,
// exhaustive linearizability) is measured per iteration; the object
// benchmarks measure per-operation cost on the native substrate.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/bench"
	"abadetect/internal/core"
	"abadetect/internal/llsc"
	"abadetect/internal/lowerbound"
	"abadetect/internal/machine"
	"abadetect/internal/shmem"
)

// BenchmarkE1_ModelCheckSpace measures the Observation-1 witness search that
// reproduces Theorem 1(a): refuting the 1-register bounded-tag scheme.
func BenchmarkE1_ModelCheckSpace(b *testing.B) {
	for _, tagVals := range []uint64{2, 4, 8} {
		b.Run(fmt.Sprintf("tagvals=%d", tagVals), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := machine.TagSystem{TagVals: tagVals}.NewConfig(2)
				res, err := lowerbound.FindObservation1Violation(
					lowerbound.Game{Init: cfg, Writer: 0, Target: 1},
					lowerbound.Options{MaxNodes: 200000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Witness == nil {
					b.Fatal("witness not found")
				}
			}
		})
	}
	b.Run("fig4-exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg, err := machine.PaperFig4(2).NewConfig()
			if err != nil {
				b.Fatal(err)
			}
			res, err := lowerbound.FindObservation1Violation(
				lowerbound.Game{Init: cfg, Writer: 0, Target: 1},
				lowerbound.Options{MaxNodes: 200000})
			if err != nil {
				b.Fatal(err)
			}
			if res.Witness != nil || !res.Exhausted {
				b.Fatalf("unexpected result: witness=%v exhausted=%v", res.Witness != nil, res.Exhausted)
			}
		}
	})
}

// BenchmarkE2_AdversarialLL measures the Figure 2 hiding adversary forcing
// the single-CAS LL/SC to Θ(n) steps (Theorem 1(b,c) / Corollary 1).
func BenchmarkE2_AdversarialLL(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("fig3/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.AdversarialLL(func(f shmem.Factory, n int) (llsc.Object, error) {
					return llsc.NewCASBased(f, n, 8, 0)
				}, n)
				if err != nil {
					b.Fatal(err)
				}
				if res.VictimSteps != int64(2*n+1) {
					b.Fatalf("victim steps = %d, want %d", res.VictimSteps, 2*n+1)
				}
			}
		})
	}
}

// benchLLSCUncontended measures single-process LL;SC pairs.  The counter
// wraps at the 16-bit value domain the objects are built with.
func benchLLSCUncontended(b *testing.B, obj LLSC) {
	h, err := obj.Handle(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := h.LL()
		if !h.SC((v + 1) & 0xffff) {
			b.Fatal("uncontended SC failed")
		}
	}
}

// benchLLSCContended measures LL;SC retry loops across all CPUs.
func benchLLSCContended(b *testing.B, obj LLSC) {
	var pids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := int(pids.Add(1) - 1)
		h, err := obj.Handle(pid)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			for {
				v := h.LL()
				if h.SC((v + 1) & 0xffff) {
					break
				}
			}
		}
	})
}

// BenchmarkE3_LLSCSingleCAS measures Theorem 2's object: one bounded CAS,
// O(1) uncontended, O(n) worst case.
func BenchmarkE3_LLSCSingleCAS(b *testing.B) {
	n := maxProcs()
	b.Run("uncontended", func(b *testing.B) {
		obj, err := NewLLSC(n, WithValueBits(16))
		if err != nil {
			b.Fatal(err)
		}
		benchLLSCUncontended(b, obj)
	})
	b.Run("contended", func(b *testing.B) {
		obj, err := NewLLSC(n, WithValueBits(16))
		if err != nil {
			b.Fatal(err)
		}
		benchLLSCContended(b, obj)
	})
}

// BenchmarkE4_DetectRegister measures Theorem 3's register: 2-step writes,
// 4-step reads, flat across n.
func BenchmarkE4_DetectRegister(b *testing.B) {
	for _, n := range []int{2, 16, 64} {
		reg, err := NewDetectingRegister(n, WithValueBits(16))
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
		b.Run(fmt.Sprintf("write/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.DWrite(Word(i & 0xffff))
			}
		})
		b.Run(fmt.Sprintf("read/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.DRead()
			}
		})
	}
	b.Run("read-write-race", func(b *testing.B) {
		n := maxProcs()
		reg, err := NewDetectingRegister(n, WithValueBits(16))
		if err != nil {
			b.Fatal(err)
		}
		var pids atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			pid := int(pids.Add(1) - 1)
			h, err := reg.Handle(pid)
			if err != nil {
				b.Error(err)
				return
			}
			i := 0
			for pb.Next() {
				if pid%2 == 0 {
					h.DWrite(Word(i & 0xffff))
				} else {
					h.DRead()
				}
				i++
			}
		})
	})
}

// BenchmarkE5_DetectFromLLSC measures Theorem 4's two-step composition over
// each LL/SC flavor.
func BenchmarkE5_DetectFromLLSC(b *testing.B) {
	builders := []struct {
		name string
		fn   func(n int, opts ...Option) (LLSC, error)
	}{
		{"fig3", NewLLSC},
		{"constant", NewLLSCConstantTime},
		{"moir", NewLLSCUnboundedTag},
	}
	for _, tc := range builders {
		b.Run(tc.name, func(b *testing.B) {
			obj, err := tc.fn(8, WithValueBits(16))
			if err != nil {
				b.Fatal(err)
			}
			reg, err := NewDetectingRegisterFromLLSC(obj)
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.DWrite(Word(i & 0xffff))
				r.DRead()
			}
		})
	}
}

// BenchmarkE6_TreiberStack measures push/pop pairs under each protection
// regime (the throughput price of safety) plus the deterministic corruption
// scenario itself.
func BenchmarkE6_TreiberStack(b *testing.B) {
	for _, tc := range []struct {
		name    string
		prot    apps.Protection
		tagBits uint
	}{
		{"raw", apps.Raw, 0},
		{"tagged16", apps.Tagged, 16},
		{"llsc", apps.LLSC, 0},
	} {
		b.Run(tc.name+"/sequential", func(b *testing.B) {
			s, err := apps.NewStack(shmem.NewNativeFactory(), 1, 8, tc.prot, tc.tagBits)
			if err != nil {
				b.Fatal(err)
			}
			h, err := s.Handle(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Push(Word(i))
				h.Pop()
			}
		})
	}
	b.Run("llsc/contended", func(b *testing.B) {
		n := maxProcs()
		s, err := apps.NewStack(shmem.NewNativeFactory(), n, 64, apps.LLSC, 0)
		if err != nil {
			b.Fatal(err)
		}
		var pids atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			pid := int(pids.Add(1) - 1)
			h, err := s.Handle(pid)
			if err != nil {
				b.Error(err)
				return
			}
			i := 0
			for pb.Next() {
				h.Push(Word(i))
				h.Pop()
				i++
			}
		})
	})
}

// BenchmarkE7_DomainAudit measures the write path with the domain auditor
// attached (the separation experiment's instrument).
func BenchmarkE7_DomainAudit(b *testing.B) {
	audit := shmem.NewAudited(shmem.NewNativeFactory())
	det, err := core.NewUnbounded(audit, 2, 8, 0)
	if err != nil {
		b.Fatal(err)
	}
	h, err := det.Handle(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DWrite(Word(i % 100))
	}
	if audit.MaxBitsUsed() == 0 {
		b.Fatal("audit saw nothing")
	}
}

// BenchmarkE8_AblationRefutation measures how quickly the model checker
// refutes a broken Figure 4 variant (usedQ shortened to 1).
func BenchmarkE8_AblationRefutation(b *testing.B) {
	sys := machine.PaperFig4(2)
	sys.UsedLen = 1
	sys.PickSmallest = true
	for i := 0; i < b.N; i++ {
		cfg, err := sys.NewConfig()
		if err != nil {
			b.Fatal(err)
		}
		res, err := lowerbound.FindObservation1Violation(
			lowerbound.Game{Init: cfg, Writer: 0, Target: 1},
			lowerbound.Options{MaxNodes: 400000})
		if err != nil {
			b.Fatal(err)
		}
		if res.Witness == nil {
			b.Fatal("ablation not refuted")
		}
	}
}

// BenchmarkE9_ConstantTimeLLSC measures the O(1) construction next to E3.
func BenchmarkE9_ConstantTimeLLSC(b *testing.B) {
	n := maxProcs()
	b.Run("uncontended", func(b *testing.B) {
		obj, err := NewLLSCConstantTime(n, WithValueBits(16))
		if err != nil {
			b.Fatal(err)
		}
		benchLLSCUncontended(b, obj)
	})
	b.Run("contended", func(b *testing.B) {
		obj, err := NewLLSCConstantTime(n, WithValueBits(16))
		if err != nil {
			b.Fatal(err)
		}
		benchLLSCContended(b, obj)
	})
}

// BenchmarkBaseline_UnboundedTag measures the trivial unbounded solution the
// bounded implementations are compared against.
func BenchmarkBaseline_UnboundedTag(b *testing.B) {
	reg, err := NewDetectingRegisterUnboundedTag(2, WithValueBits(16))
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DWrite(Word(i & 0xffff))
		r.DRead()
	}
}

// BenchmarkSuiteTables regenerates the full experiment-table suite once per
// iteration — the end-to-end cost of reproducing every paper artifact.
func BenchmarkSuiteTables(b *testing.B) {
	if testing.Short() {
		b.Skip("suite is heavy")
	}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Suite(); err != nil {
			b.Fatal(err)
		}
	}
}

// maxProcs returns a process count that covers RunParallel's workers and
// stays within Figure 3's packing limit (n + 16 value bits <= 64).
func maxProcs() int {
	n := runtime.GOMAXPROCS(0) * 2
	if n < 8 {
		n = 8
	}
	if n > 48 {
		n = 48
	}
	return n
}
