package shmem

import "sync/atomic"

// NativeFactory allocates base objects backed by sync/atomic 64-bit words.
// Every base-object step is a single hardware atomic operation, so the
// native substrate is what a downstream user runs in production.
//
// The zero value is ready to use.  Allocation is safe for concurrent use and
// lock-free — the footprint is kept in atomic counters, so goroutines
// building objects in parallel (e.g. several registers from one factory)
// never serialize on a mutex.  The allocated objects are safe for
// concurrent use by any number of goroutines.
type NativeFactory struct {
	registers  atomic.Int64
	casObjects atomic.Int64
}

var _ Factory = (*NativeFactory)(nil)

// NewNativeFactory returns a factory for atomic-word base objects.
func NewNativeFactory() *NativeFactory { return &NativeFactory{} }

// NewRegister allocates an atomic-word register.
func (f *NativeFactory) NewRegister(name string, init Word) Register {
	f.registers.Add(1)
	r := &nativeWord{}
	r.v.Store(init)
	return r
}

// NewCAS allocates an atomic-word writable CAS object.
func (f *NativeFactory) NewCAS(name string, init Word) WritableCAS {
	f.casObjects.Add(1)
	c := &nativeWord{}
	c.v.Store(init)
	return c
}

// Footprint reports the objects allocated so far.
func (f *NativeFactory) Footprint() Footprint {
	return Footprint{
		Registers:  int(f.registers.Load()),
		CASObjects: int(f.casObjects.Load()),
	}
}

// nativeWord is a single atomic 64-bit word serving as both a register and a
// writable CAS object.
type nativeWord struct {
	v atomic.Uint64
}

var (
	_ Register    = (*nativeWord)(nil)
	_ WritableCAS = (*nativeWord)(nil)
)

func (w *nativeWord) Read(pid int) Word     { return w.v.Load() }
func (w *nativeWord) Write(pid int, x Word) { w.v.Store(x) }
func (w *nativeWord) CompareAndSwap(pid int, old, new Word) bool {
	return w.v.CompareAndSwap(old, new)
}
