package abadetect

import (
	"sync"

	"abadetect/internal/shmem"
)

// Backend selects the shared-memory substrate every constructor in this
// package allocates its base objects from.  The algorithms are written
// against abstract bounded base objects, so the same construction runs on
// plain atomic words, on cache-line padded words, or under instrumentation
// that measures exactly the quantities the paper reasons about (steps taken,
// domain used).
//
// A Backend hands each constructed object a fresh factory, so per-object
// footprints stay exact while instrumenting backends aggregate their
// measurements across every object built through them.
type Backend interface {
	// newFactory returns the factory one constructor call allocates from.
	// Unexported: backends are provided by this package.
	newFactory() shmem.Factory
}

// WithBackend makes a constructor build its base objects through b
// (default: NativeBackend).
func WithBackend(b Backend) Option {
	return func(o *options) { o.backend = b }
}

// nativeBackend allocates plain sync/atomic words.
type nativeBackend struct{}

func (nativeBackend) newFactory() shmem.Factory { return shmem.NewNativeFactory() }

// NativeBackend returns the default substrate: each base object is one
// 64-bit atomic word, every step one hardware atomic operation.
func NativeBackend() Backend { return nativeBackend{} }

// slabBackend allocates contiguous slab words.
type slabBackend struct{}

func (slabBackend) newFactory() shmem.Factory { return shmem.NewSlabFactory() }

// SlabBackend returns a substrate that lays all of an object's base objects
// out in one contiguous slab of atomic words — register X and the announce
// array A side by side, eight objects per cache line — so the shared steps
// of one operation walk one or two cache lines instead of chasing scattered
// heap pointers.  Like NativeBackend it devirtualizes the hot paths: every
// shared step is one inlined atomic instruction.
//
// Prefer SlabBackend for sequential and read-mostly traffic; under heavy
// multi-core write traffic on *unrelated* objects, PaddedBackend's striped
// slab (one object per cache line) avoids false sharing instead.
func SlabBackend() Backend { return slabBackend{} }

// paddedBackend allocates cache-line striped slab words.
type paddedBackend struct{}

func (paddedBackend) newFactory() shmem.Factory { return shmem.NewPaddedFactory() }

// PaddedBackend returns a substrate whose base objects each occupy a full
// cache line, so operations on distinct objects never contend for a line.
// It is the striped preset of the slab substrate — contiguous, allocation-
// free, devirtualized — for several registers under heavy multi-core write
// traffic; the paper's space measure counts objects, not bytes, so padding
// costs nothing in the model.
func PaddedBackend() Backend { return paddedBackend{} }

// CountingBackend counts every shared-memory step — the paper's time
// measure — per process, aggregated across all objects built through it.
type CountingBackend struct {
	maxProcs int

	mu        sync.Mutex
	factories []*shmem.Counting
}

var _ Backend = (*CountingBackend)(nil)

// NewCountingBackend returns a step-counting backend for process IDs in
// [0, maxProcs).  Steps by out-of-range pids are not counted.
func NewCountingBackend(maxProcs int) *CountingBackend {
	return &CountingBackend{maxProcs: maxProcs}
}

func (b *CountingBackend) newFactory() shmem.Factory {
	c := shmem.NewCounting(shmem.NewNativeFactory(), b.maxProcs)
	b.mu.Lock()
	b.factories = append(b.factories, c)
	b.mu.Unlock()
	return c
}

// Steps returns the number of shared-memory steps process pid has taken
// across every object built through this backend.
func (b *CountingBackend) Steps(pid int) int64 {
	if pid < 0 || pid >= b.maxProcs {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var total int64
	for _, c := range b.factories {
		total += c.Steps(pid)
	}
	return total
}

// TotalSteps returns the steps taken by all processes together.
func (b *CountingBackend) TotalSteps() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total int64
	for _, c := range b.factories {
		total += c.TotalSteps()
	}
	return total
}

// Reset zeroes every step counter.
func (b *CountingBackend) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.factories {
		c.Reset()
	}
}

// AuditBackend records, per base object, the largest word ever stored — the
// used value domain.  It makes the paper's bounded/unbounded separation
// observable: bounded implementations stay inside their declared domain
// forever, the unbounded baselines keep growing (experiment E7).
type AuditBackend struct {
	mu     sync.Mutex
	audits []*shmem.Audited
}

var _ Backend = (*AuditBackend)(nil)

// NewAuditBackend returns a domain-auditing backend.
func NewAuditBackend() *AuditBackend { return &AuditBackend{} }

func (b *AuditBackend) newFactory() shmem.Factory {
	a := shmem.NewAudited(shmem.NewNativeFactory())
	b.mu.Lock()
	b.audits = append(b.audits, a)
	b.mu.Unlock()
	return a
}

// MaxBitsUsed returns the bit-length of the largest word any object built
// through this backend ever held: its used domain is a subset of
// [0, 2^MaxBitsUsed).
func (b *AuditBackend) MaxBitsUsed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	maxBits := 0
	for _, a := range b.audits {
		if bits := a.MaxBitsUsed(); bits > maxBits {
			maxBits = bits
		}
	}
	return maxBits
}
