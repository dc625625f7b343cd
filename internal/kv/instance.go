package kv

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/shmem"
)

// maxSpin bounds the map's traversal loops in matrix runs: a raw-guarded
// map that has been ABA-corrupted can acquire a cycle through its list,
// and a bounded spin turns the resulting livelock into failed
// operations.  As with the queue instance, a worker whose handle spends one
// budget issues no further operations, so a corrupted foil costs one budget
// per worker, not one per remaining op on the cycled bucket.
const maxSpin = 10_000

// NewMapInstance builds a map of the given capacity for the benchmark
// matrices.  The fixed Worker workload cycles put/get/get/delete over a
// small shared key range (cross-process contention on bucket heads and
// chains); the richer Keyed seam lets the load generator substitute its own
// arrival process, key popularity, and op mix.
func NewMapInstance(f shmem.Factory, n, capacity int, mk guard.Maker, io apps.InstanceOptions) (apps.Instance, error) {
	m, err := NewMap(f, n, capacity, capacity, 0, 0, io.StructOpts(mk)...)
	if err != nil {
		return nil, err
	}
	return mapInstance{m: m, abandoned: new(atomic.Int64)}, nil
}

// mapInstance drives a map through bounded handles.  Once a worker's handle
// has spent a MaxSpin budget, the worker skips its remaining ops and counts
// them in abandoned; the audit reports them.
type mapInstance struct {
	m         *Map
	abandoned *atomic.Int64
}

func (in mapInstance) handle(pid int) (*Handle, error) {
	h, err := in.m.Handle(pid)
	if err != nil {
		return nil, err
	}
	h.MaxSpin = maxSpin
	return h, nil
}

// stopped reports whether h has spent its budget, counting the op the
// worker skips because of it.
func (in mapInstance) stopped(h *Handle) bool {
	if h.spunOut {
		in.abandoned.Add(1)
	}
	return h.spunOut
}

// Worker cycles put(k)/get(k)/get(hot)/delete(k) with k shared across
// processes, so each 4-op cycle is allocation-balanced while bucket heads
// and chains stay contended.
func (in mapInstance) Worker(pid int) (func(i int), error) {
	h, err := in.handle(pid)
	if err != nil {
		return nil, err
	}
	return func(i int) {
		if in.stopped(h) {
			return
		}
		k := Word((i >> 2) & 31)
		switch i & 3 {
		case 0:
			h.Put(k, Word(pid)<<32|Word(i))
		case 1:
			h.Get(k)
		case 2:
			h.Get(1) // the hot key
		default:
			h.Delete(k)
		}
	}, nil
}

// ReadMostlyWorker: 1 put and 1 delete per 20 ops, 18 wait-free gets between
// them over a small key range — the map's read-scaling workload (E14).  The
// put leads each cycle so the gets mostly hit.
func (in mapInstance) ReadMostlyWorker(pid int) (func(i int), error) {
	h, err := in.handle(pid)
	if err != nil {
		return nil, err
	}
	return func(i int) {
		if in.stopped(h) {
			return
		}
		k := Word((i / 20) & 63)
		switch i % 20 {
		case 0:
			h.Put(k, Word(pid)<<32|Word(i))
		case 19:
			h.Delete(k)
		default:
			h.Get(k)
		}
	}, nil
}

// KeyedWorker is the apps.Keyed seam the load generator drives.
func (in mapInstance) KeyedWorker(pid int) (func(op apps.OpKind, key, val Word), error) {
	h, err := in.handle(pid)
	if err != nil {
		return nil, err
	}
	return func(op apps.OpKind, key, val Word) {
		if in.stopped(h) {
			return
		}
		switch op {
		case apps.OpPut:
			h.Put(key, val)
		case apps.OpDelete:
			h.Delete(key)
		default:
			h.Get(key)
		}
	}, nil
}

// Audit fails a map that abandoned ops: a spent spin budget means a worker
// could make no progress on it.
func (in mapInstance) Audit() (bool, string) {
	a := in.m.Audit()
	if n := in.abandoned.Load(); n > 0 {
		return true, fmt.Sprintf("%s abandoned=%d", a, n)
	}
	return a.Corrupt(), a.String()
}

func (in mapInstance) GuardMetrics() guard.Metrics    { return in.m.GuardMetrics() }
func (in mapInstance) FreelistMetrics() guard.Metrics { return in.m.FreelistMetrics() }
func (in mapInstance) PoolStats() apps.PoolStats      { return in.m.PoolStats() }

// GrowthStats exposes the resize counters and the capacity trajectory for
// the E15 growth matrix: directory splits, node-segment appends, threshold
// checks that found a split already in progress, and the capacity the map
// ended at.  All zero motion on a fixed map.
func (in mapInstance) GrowthStats() (splits, appends, retries int64, capNow int) {
	m := in.m
	return m.splits.Load(), m.appends.Load(), m.retries.Load(), m.Capacity()
}
