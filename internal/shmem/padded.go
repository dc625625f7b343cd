package shmem

// PaddedFactory allocates base objects so that two objects never share a
// cache line: under heavy multi-core traffic, operations on unrelated
// objects (e.g. distinct registers built from one factory) stop
// invalidating each other's lines.
//
// It is the cache-line striped preset of SlabFactory — one slab, one object
// per 64-byte line — so padded objects live in contiguous slabs, cost no
// per-object heap allocation, and devirtualize through Direct exactly like
// native and packed-slab objects.  The stride is fixed by the methods, not
// stored, so the zero value keeps the padding guarantee.
//
// The paper's space measure m counts base objects, not bytes, so padding is
// free in the model — it is purely a hardware-throughput choice.
type PaddedFactory struct {
	slab SlabFactory
}

var _ Factory = (*PaddedFactory)(nil)

// NewPaddedFactory returns a factory for cache-line padded base objects.
func NewPaddedFactory() *PaddedFactory { return &PaddedFactory{} }

// NewRegister allocates a padded register.
func (f *PaddedFactory) NewRegister(name string, init Word) Register {
	f.slab.registers.Add(1)
	return f.slab.allocStride(cacheLineWords, init)
}

// NewCAS allocates a padded writable CAS object.
func (f *PaddedFactory) NewCAS(name string, init Word) WritableCAS {
	f.slab.casObjects.Add(1)
	return f.slab.allocStride(cacheLineWords, init)
}

// Footprint reports the objects allocated so far.
func (f *PaddedFactory) Footprint() Footprint { return f.slab.Footprint() }

// cacheLineBytes is the assumed coherence granularity.  64 bytes covers
// x86-64 and most AArch64 parts; oversizing merely wastes a little memory.
const cacheLineBytes = 64
