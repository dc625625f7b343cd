package shmem

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// SlabFactory allocates base objects inside large contiguous slabs of atomic
// 64-bit words instead of one heap allocation per object.  All of an
// algorithm's base objects — register X plus the announce array A[0..n-1],
// say — land next to each other in one backing array, so the four shared
// steps of a Figure 4 DRead touch one or two cache lines instead of n+1
// scattered heap objects.
//
// A SlabFactory packs objects densely, eight per cache line — best for the
// sequential and read-mostly paths the paper's t(n) counts.  PaddedFactory
// reuses the same slabs at a stride of one cache line per object, the
// layout for heavy multi-core write traffic on unrelated objects.
//
// Slabs are fixed-size arrays that never move once allocated, so the
// *slabWord handles stay valid for the life of the factory; growing the
// factory allocates a new slab rather than copying the old one.  The paper's
// space measure m counts base objects, not bytes, so the layout is free in
// the model — it is purely a hardware-throughput choice.
//
// The zero value is ready to use.  Allocation is safe for concurrent use;
// the allocated objects are safe for concurrent use by any number of
// goroutines.
type SlabFactory struct {
	mu       sync.Mutex // guards slab growth, not the footprint counters
	slab     []slabWord // current slab; older full slabs stay referenced by their words
	next     int        // next free index in slab
	nextSize int        // size of the next slab; grows geometrically

	registers  atomic.Int64
	casObjects atomic.Int64
}

var _ Factory = (*SlabFactory)(nil)

// cacheLineWords is the coherence granularity in 64-bit words.
const cacheLineWords = cacheLineBytes / 8

// Slab sizing: each factory backs one constructed object (a fresh factory
// per constructor call), so the first slab is small — a one-word Moir CAS
// must not pin kilobytes — and subsequent slabs double up to the cap, so
// large objects (big announce arrays) and factories shared by several
// objects still amortize to a few allocations with long contiguous runs.
const (
	slabMinWords   = 16  // first slab: 128 bytes packed, 2 striped objects
	slabChunkWords = 512 // cap: 4 KiB, 512 packed objects or 64 striped ones
)

// NewSlabFactory returns a factory that packs base objects contiguously.
func NewSlabFactory() *SlabFactory { return &SlabFactory{} }

// allocStride reserves the next slot stride words after the previous one,
// starting a new slab when the current one is full.  The stride is a
// parameter, not stored in the factory: the packed methods pass 1 and
// PaddedFactory passes a cache line, so both layouts hold as zero values.
func (f *SlabFactory) allocStride(stride int, init Word) *slabWord {
	f.mu.Lock()
	if f.next >= len(f.slab) {
		size := f.nextSize
		if size < slabMinWords {
			size = slabMinWords
		}
		if size > slabChunkWords {
			size = slabChunkWords
		}
		f.nextSize = size * 2
		if stride%cacheLineWords == 0 {
			// Striped layouts promise "never two objects on one line", which
			// needs the first slot on a line boundary; Go only aligns the
			// backing array to the word size, so over-allocate and round up.
			f.slab = make([]slabWord, size+cacheLineWords-1)
			base := uintptr(unsafe.Pointer(&f.slab[0]))
			f.next = int((cacheLineBytes - base%cacheLineBytes) % cacheLineBytes / 8)
		} else {
			f.slab = make([]slabWord, size)
			f.next = 0
		}
	}
	w := &f.slab[f.next]
	f.next += stride
	f.mu.Unlock()
	w.v.Store(init)
	return w
}

// NewRegister allocates a slab-resident register.
func (f *SlabFactory) NewRegister(name string, init Word) Register {
	f.registers.Add(1)
	return f.allocStride(1, init)
}

// NewCAS allocates a slab-resident writable CAS object.
func (f *SlabFactory) NewCAS(name string, init Word) WritableCAS {
	f.casObjects.Add(1)
	return f.allocStride(1, init)
}

// Footprint reports the objects allocated so far.
func (f *SlabFactory) Footprint() Footprint {
	return Footprint{
		Registers:  int(f.registers.Load()),
		CASObjects: int(f.casObjects.Load()),
	}
}

// slabWord is one atomic word inside a slab, serving as both a register and
// a writable CAS object.  Its address is a slot of the slab's backing array,
// so handing one out costs no allocation.
type slabWord struct {
	v atomic.Uint64
}

var (
	_ Register    = (*slabWord)(nil)
	_ WritableCAS = (*slabWord)(nil)
)

func (w *slabWord) Read(pid int) Word     { return w.v.Load() }
func (w *slabWord) Write(pid int, x Word) { w.v.Store(x) }
func (w *slabWord) CompareAndSwap(pid int, old, new Word) bool {
	return w.v.CompareAndSwap(old, new)
}

// Direct returns the raw atomic word backing obj when obj was allocated by
// one of the direct substrates — NativeFactory, SlabFactory, or the
// slab-backed PaddedFactory — and nil otherwise.
//
// This is the devirtualization hook: algorithm constructors call Direct on
// the base objects they just allocated and, when every one resolves, bind
// their hot paths to *atomic.Uint64 loads, stores, and CASes instead of
// dynamic interface calls.  The instrumented substrates (Counting, Audited)
// and the deterministic simulator intentionally resolve to nil, so a bound
// fast path can never bypass step counting, domain auditing, or scheduling.
func Direct(obj any) *atomic.Uint64 {
	switch w := obj.(type) {
	case *nativeWord:
		return &w.v
	case *slabWord:
		return &w.v
	}
	return nil
}

// DirectRegisters resolves every register of a base-object array, returning
// nil unless all of them are direct (a partially devirtualized announce scan
// would be incorrect under instrumentation).
func DirectRegisters(regs []Register) []*atomic.Uint64 {
	out := make([]*atomic.Uint64, len(regs))
	for i, r := range regs {
		d := Direct(r)
		if d == nil {
			return nil
		}
		out[i] = d
	}
	return out
}
