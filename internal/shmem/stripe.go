package shmem

import (
	"runtime"
	"sync/atomic"
)

// stripeCount is the number of counter stripes, fixed at init: the next
// power of two covering GOMAXPROCS, capped at 16 so one counter stays within
// 1 KB.  A power of two makes StripeFor a mask instead of a modulo.
// GOMAXPROCS changes after init keep the mapping valid (stripes are a
// contention hint, not a correctness property) — they only shift which pids
// share a stripe.
var stripeCount = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	return n
}()

// StripeFor maps a process id to its counter stripe.  The observer pid (-1)
// and any other out-of-band pid land on stripe 0.
func StripeFor(pid int) int {
	if pid < 0 {
		return 0
	}
	return pid & (stripeCount - 1)
}

// StripedCounter is a monotonic counter sharded across cache-line padded
// stripes: writers on different stripes never contend on one atomic word or
// invalidate each other's lines, and readers sum the stripes.  It is the
// instrumentation counterpart of the paper's RMR lens — a shared atomic
// counter turns every bump into a remote memory reference under contention,
// which is exactly the serialization a structure-wide count (a map's live
// keys and read retries, a pool's exhaustions) must not charge to the
// operations it observes.  A counter costs stripeCount cache lines, so it
// suits a count kept once per structure, not once per node.
//
// The zero value is NOT ready; build with NewStripedCounter.  Counters are
// instrumentation, not base objects: they live outside the paper's
// shared-memory cost model.
type StripedCounter struct {
	lanes []stripedLane
}

// stripedLane pads one stripe's word to a full cache line.
type stripedLane struct {
	v atomic.Int64
	_ [cacheLineBytes - 8]byte
}

// NewStripedCounter returns a counter with stripeCount lanes.
func NewStripedCounter() *StripedCounter {
	return &StripedCounter{lanes: make([]stripedLane, stripeCount)}
}

// Add bumps the given stripe (callers pass StripeFor(pid), usually cached in
// their handle at construction).
func (c *StripedCounter) Add(stripe int, delta int64) {
	c.lanes[stripe&(len(c.lanes)-1)].v.Add(delta)
}

// Load sums the stripes.  The sum is not an atomic snapshot across lanes —
// exactly the tolerance every stats read here already has.
func (c *StripedCounter) Load() int64 {
	var t int64
	for i := range c.lanes {
		t += c.lanes[i].v.Load()
	}
	return t
}
