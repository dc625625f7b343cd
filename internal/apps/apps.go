// Package apps contains the application-level workloads the paper's
// introduction motivates: lock-free data structures whose correctness hinges
// on ABA prevention, rebuilt over the unified Guard abstraction of
// internal/guard so every structure runs under every protection regime —
// and, through guard.Maker, over any registered implementation and any
// shared-memory substrate.
//
//   - Treiber stack (stack.go): the canonical ABA victim.  A pop reads the
//     head node and its successor, then conditionally swings the head; if
//     the head node was popped, recycled, and re-pushed in between, a raw
//     commit succeeds and corrupts the structure.
//   - Michael–Scott queue (queue.go): enqueue/dequeue with node recycling.
//     Its head, tail, and per-node next references are all Guards, so the
//     queue runs raw (the historical ABA victim the tagging literature was
//     invented for), tagged, LL/SC, or detector-guarded.
//   - Resettable event flag (event.go): the busy-wait scenario of §1 — a
//     waiter polls a reference that a signaler sets and then resets for
//     reuse.  Poll rides the guard's dirty-load detection: a raw guard
//     misses in-window pulses entirely, a k-bit tag misses exactly at
//     wraparound, LL/SC- and detector-backed guards never miss.
//
// The layering is uniform: a structure owns plain value registers plus one
// Guard per mutable reference, all allocated through a single guard.Maker,
// so the protection regime is a constructor argument rather than a
// per-structure reimplementation.  Node recycling goes through a pool —
// either the mutex FIFO allocator model (deterministic recycling order for
// the corruption scripts) or, with WithGuardedPool, a lock-free free list
// whose head is itself a Guard of the same regime: the free list is exactly
// as ABA-vulnerable as the structure above it, and its guard's near-miss
// counters make free-list ABA observable.
package apps

import (
	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Word is the element type of the data structures.
type Word = shmem.Word

// Protection selects how a structure's mutable references are guarded.  It
// is the guard package's Regime: Raw (bare CAS, vulnerable), Tagged (k-bit
// wrap-around tag, vulnerable at wraparound), LLSC (immune by
// specification), and Detector (the Figure 5 detecting view, immune and
// counting every detected ABA).
type Protection = guard.Regime

// Protection regimes.
const (
	// Raw uses bare CAS on node indices: vulnerable to ABA.
	Raw = guard.Raw
	// Tagged packs a k-bit wrap-around tag next to the index: vulnerable
	// exactly when the tag wraps.
	Tagged = guard.Tagged
	// LLSC uses a load-linked/store-conditional object: immune by
	// specification.
	LLSC = guard.LLSC
	// Detector guards through an ABA-detecting register view (Figure 5 over
	// LL/SC for structures that commit; any detector for the event flag).
	Detector = guard.Detector
)

// StructOption configures a structure constructor.
type StructOption func(*StructConfig)

// StructConfig is the resolved constructor configuration: the guard maker
// every mutable reference comes from plus the allocator selection.  It is
// exported so structures outside this package (the hash map of internal/kv)
// resolve the same options and feed the same pool seam.
type StructConfig struct {
	// Maker allocates every guard of the structure.
	Maker guard.Maker
	// GuardedPool selects the lock-free guarded free list over the mutex
	// FIFO allocator model.
	GuardedPool bool
	// Reclaim, when non-nil, wraps the pool in a safe-memory-reclamation
	// scheme.
	Reclaim reclaim.Maker
	// GrowTo, when positive, enables online growth on structures that
	// support it (the map): the structure starts at its constructor capacity
	// and extends its node space geometrically through Pool.Grow, up to
	// GrowTo nodes, with no stop-the-world phase.  Structures without a
	// growth protocol ignore it.
	GrowTo int
	// Trace, when non-nil, is the flight recorder every seam of the
	// structure records into: its guards (through a wrapped Maker), its
	// pool, its reclaimer, and its split-operation hooks.  Nil — the
	// default — means no wrapper exists anywhere on the hot path.
	Trace *trace.Recorder
}

// WithMaker makes the structure allocate its guards from mk instead of the
// default construction for its Protection argument — the hook the registry
// and the public API use to put any registered implementation, over any
// backend, behind a structure.  The Protection and tagBits constructor
// arguments are ignored when a maker is supplied.
func WithMaker(mk guard.Maker) StructOption {
	return func(o *StructConfig) { o.Maker = mk }
}

// WithGuardedPool replaces the mutex FIFO node allocator with a lock-free
// LIFO free list whose head is a Guard from the same maker: the free list
// becomes exactly as ABA-(in)vulnerable as the structure it feeds, and its
// guard metrics expose free-list near-misses.  The deterministic corruption
// scripts rely on FIFO recycling order, so they use the default pool.
func WithGuardedPool() StructOption {
	return func(o *StructConfig) { o.GuardedPool = true }
}

// WithReclaimer routes the structure's node releases through a safe-memory-
// reclamation scheme built by mk: releases retire nodes into limbo, and the
// traversal loops' published protections keep a node from re-entering the
// allocator while any process may still hold its index.  With a reclaimer
// the recycle leg of the §1 ABA cannot happen inside a victim's window, so
// even a Raw-guarded structure survives the deterministic corruption
// scripts — prevention by allocation discipline instead of detection.
func WithReclaimer(mk reclaim.Maker) StructOption {
	return func(o *StructConfig) { o.Reclaim = mk }
}

// WithGrowth lets the structure grow its node space online, up to
// maxCapacity nodes: the constructor capacity becomes the *initial* size,
// and when live occupancy crosses a threshold the structure doubles its
// bucket directory (split-ordered expansion — nodes never move) and extends
// its pool by geometric segment appends (indices never move).  Guards are
// sized for maxCapacity from the start, so link words never need re-widening
// mid-run.  Structures without a growth protocol ignore the option.
func WithGrowth(maxCapacity int) StructOption {
	return func(o *StructConfig) { o.GrowTo = maxCapacity }
}

// WithTrace routes every seam of the structure — guards, pool, reclaimer,
// split-operation hooks — into rec's per-process event rings.  The
// structure's guard maker is wrapped at resolution time, so the tracing-off
// configuration (no WithTrace) carries no wrapper and no branch anywhere.
func WithTrace(rec *trace.Recorder) StructOption {
	return func(o *StructConfig) { o.Trace = rec }
}

// ResolveStructOptions resolves opts, defaulting the maker to the guard
// package's stock construction of prot over f.
func ResolveStructOptions(f shmem.Factory, n int, prot Protection, tagBits uint, opts []StructOption) StructConfig {
	var o StructConfig
	for _, fn := range opts {
		fn(&o)
	}
	if o.Maker == nil {
		o.Maker = guard.NewMaker(f, n, prot, tagBits)
	}
	if o.Trace != nil {
		o.Maker = guard.TracedMaker(o.Maker, o.Trace)
	}
	return o
}
