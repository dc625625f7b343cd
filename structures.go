package abadetect

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/kv"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// This file is the public application layer: the lock-free data structures
// of the paper's §1 motivation — Treiber stack, Michael–Scott queue, and
// the resettable busy-wait event flag — each runnable under every
// protection regime × registered implementation × backend this package
// knows about.  It mirrors the Option plumbing of the base-object
// constructors: WithBackend selects the substrate, WithProtection the guard
// regime, WithGuardImpl the registered implementation behind an LL/SC or
// detector guard, WithTagBits the tag width, and WithGuardedPool routes the
// node allocator's free list through a guard of the same regime.

// Protection selects how a structure's mutable references are guarded — the
// paper's §1 ladder, weakest to strongest.
type Protection int

// Protection regimes.
const (
	// ProtectionRaw uses bare CAS on references: the ABA victim.  It exists
	// for head-to-head comparison and the corruption experiments.
	ProtectionRaw Protection = iota + 1
	// ProtectionTagged packs a wrap-around tag beside each reference
	// (WithTagBits, default 16): sound until 2^k writes land inside one
	// operation's window.
	ProtectionTagged
	// ProtectionLLSC keeps references in LL/SC objects: immune by
	// specification.  The default.
	ProtectionLLSC
	// ProtectionDetector keeps references behind an ABA-detecting view
	// (Figure 5 over LL/SC): immune, and every prevented ABA is counted in
	// the structure's GuardMetrics.
	ProtectionDetector
)

// String names the regime.
func (p Protection) String() string { return guard.Regime(p).String() }

// GuardMetrics are a structure's aggregated guard audit counters.
type GuardMetrics struct {
	// Commits and Rejected count successful and failed conditional swings.
	Commits, Rejected int64
	// NearMisses counts rejected swings whose reference value compared
	// equal: ABAs the regime detected and prevented.  Raw guards record
	// none by construction — that structural zero is the vulnerability.
	NearMisses int64
	// DirtyLoads counts loads that observed a write to the reference since
	// the same handle's previous load, the handle's own writes included: a
	// successful commit or store leaves the handle's next load dirty.
	DirtyLoads int64
}

func publicMetrics(m guard.Metrics) GuardMetrics {
	return GuardMetrics{Commits: m.Commits, Rejected: m.Rejected, NearMisses: m.NearMisses, DirtyLoads: m.DirtyLoads}
}

// StructureAudit is a quiescent-state structural check of a stack or queue,
// together with the allocator's observability counters.
//
// Snapshot semantics, made explicit: GuardMetrics and FreelistMetrics sum
// independent atomic loads of each guard's four counters, so they are safe
// to read under live traffic but deliberately relaxed — no individual
// counter is ever torn, yet related counters can be caught between the
// bumps of one in-flight operation.  The full Audit additionally
// walks the reclaimer's pending lists and the structure's links, which is
// why it (unchanged from its contract) requires quiescence.  At quiescence
// every snapshot is exact and repeatable: two back-to-back audits are deeply
// equal, a contract pinned by a race-mode test at the repository root.
type StructureAudit struct {
	// Corrupt reports structural damage: nodes simultaneously reachable and
	// free, lost nodes, cycles, or a dangling tail.  Nodes deferred by a
	// reclaimer count as allocator-owned, not lost.
	Corrupt bool
	// Detail renders the underlying counts.
	Detail string
	// PoolExhaustions counts allocations that found no free node (after
	// draining the reclaimer, when one is active): the signal that
	// distinguishes a saturated pool from a livelock.
	PoolExhaustions int64
	// Reclaimer names the active reclamation scheme ("none" = immediate
	// reuse, the default).
	Reclaimer string
	// Retired, Reclaimed, and Deferred are the reclaimer's counters: nodes
	// handed to it, nodes returned to the allocator, and nodes currently in
	// limbo.  Under "none" every retired node is reclaimed immediately.
	Retired, Reclaimed, Deferred int64
	// ReclaimStalls counts reclamation passes that could free nothing while
	// nodes were pending — hazards covering every candidate, or an epoch
	// advance blocked by a stalled process.
	ReclaimStalls int64
	// RetireBatches counts the map's per-operation kill sets, each handed
	// to the reclaimer in one call with its bookkeeping amortized over the
	// set.  Stacks and queues kill one node per operation and retire it
	// singly, so theirs stays 0.
	RetireBatches int64
	// SkippedScans is always 0.
	//
	// Deprecated: hp reads every hazard slot on every sweep; no sweep is
	// skipped.
	SkippedScans int64
	// AllocPressure counts allocator backpressure signals: failed
	// allocations reported to the reclaimer before the exhaustion drain.
	AllocPressure int64
	// CadenceTightens and CadenceRelaxes count the self-tuning moves of the
	// epoch:auto scheme: advance-cadence reductions under limbo pressure or
	// stalled drains, and increases after drains that emptied the pending
	// list.  Zero for the fixed-cadence schemes.
	CadenceTightens, CadenceRelaxes int64
	// ReadRetries and ReadFallbacks are the map's wait-free read-path
	// counters: torn fast-path Get attempts that were detected and retried,
	// and Gets that exhausted the retry budget and fell back to the guarded
	// lock-free traversal.  Both zero on clean read-mostly traffic.
	ReadRetries, ReadFallbacks int64
	// Splits, SegmentAppends, and ResizeRetries are the map's resize
	// counters (zero unless built WithGrowth): bucket-directory doublings,
	// geometric node-segment appends, and directory doublings lost to a
	// concurrent winner.
	Splits, SegmentAppends, ResizeRetries int64
}

// poolAudit merges the allocator counters into a structure audit.
func poolAudit(corrupt bool, detail string, ps apps.PoolStats) StructureAudit {
	return StructureAudit{
		Corrupt:         corrupt,
		Detail:          detail,
		PoolExhaustions: ps.Exhaustions,
		Reclaimer:       ps.Scheme,
		Retired:         ps.Reclaim.Retired,
		Reclaimed:       ps.Reclaim.Freed,
		Deferred:        ps.Reclaim.Deferred(),
		ReclaimStalls:   ps.Reclaim.Stalls,
		RetireBatches:   ps.Reclaim.Batches,
		AllocPressure:   ps.Reclaim.Pressure,
		CadenceTightens: ps.Reclaim.Tightens,
		CadenceRelaxes:  ps.Reclaim.Relaxes,
	}
}

// WithProtection selects the guard regime of a structure constructor
// (default ProtectionLLSC).  Base-object constructors ignore it.
func WithProtection(p Protection) Option {
	return func(o *options) { o.protection = p }
}

// WithTagBits sets the wrap-around tag width of ProtectionTagged (default
// 16).  An explicitly supplied width is validated regardless of regime:
// zero is rejected at construction (it would silently degrade a tagged
// guard to raw) and so is a width no 64-bit packed word can hold; under
// ProtectionTagged the width must additionally leave room for the
// structure's reference bits.  A map's reference is a link word: a mark bit
// plus an index naming any node or bucket dummy up to the growth ceiling,
// one bit wider than a node index alone — a 16-node map takes at most 57
// tag bits.  Regimes other than Tagged otherwise ignore the value.
func WithTagBits(bits uint) Option {
	return func(o *options) { o.tagBits, o.tagBitsSet = bits, true }
}

// WithReclamation routes a structure's node releases through a safe-memory-
// reclamation scheme: "hp" (hazard pointers), "epoch" (epoch-based
// reclamation), "epoch:auto" (epoch whose cadence self-tunes to allocator
// backpressure), or "none" (the explicit immediate-reuse pass-through; also
// the default when the option is absent).  Any other name is a constructor
// error.  Under every scheme but "none" a removed node cannot re-enter the
// allocator while any process may still hold its index, so the §1
// recycle-inside-the-window ABA never forms — even under ProtectionRaw.  That is the trade the paper's m(n)/t(n) vocabulary prices:
// hp spends n·H published slots and an amortized scan, epoch spends n+1
// words and an unbounded counter (and stalls all reuse behind one stalled
// process), where tagging spends k bits of every guarded word.  The
// reclaimer's counters surface through Audit().  The event flag has no node
// pool; it accepts the option and ignores it.
func WithReclamation(scheme string) Option {
	return func(o *options) { o.reclaim = scheme }
}

// WithGuardImpl selects the registered implementation behind a
// ProtectionLLSC or ProtectionDetector guard (defaults: "fig3" and
// "fig5-fig3"; see Implementations for the catalog).  For
// ProtectionDetector, implementations with an LL/SC core (the fig5-*
// family) support all structures; register-only detectors such as "fig4"
// are detection-only and can guard only the event flag.
func WithGuardImpl(id string) Option {
	return func(o *options) { o.guardImpl = id }
}

// WithGuardedPool routes a structure's node free list through a guard of
// the same regime, instead of the default mutex FIFO allocator model.  The
// free list then becomes exactly as ABA-(in)vulnerable as the structure
// above it, and FreelistMetrics exposes its counters.
func WithGuardedPool() Option {
	return func(o *options) { o.guardedPool = true }
}

// WithGrowth lets a map grow its node pool and bucket directory up to
// maxCapacity keys, with no stop-the-world: the node space extends by
// geometric segment appends (existing nodes never move — new segments extend
// the slab addressing), and the bucket directory doubles by split-ordered
// splitting (a new bucket is a dummy linked into the one global sorted
// list; no node is ever rehashed or migrated).  Splits are eager: the Put
// whose threshold check finds more than 6 live keys per bucket links every
// new bucket's dummy — S links for a directory of S buckets, O(1) amortized
// per insert — before it publishes the doubled directory, so that one Put
// carries the whole doubling, just as the Put that finds the pool empty
// carries a segment append; no other operation ever waits on either.  The
// two are of one size: filling a map with 1M keys through one handle on a
// 2-vCPU guest, the 65,536 → 131,072 split took about 0.2 s in one Put and
// the append to 1,048,576 nodes about 0.35 s in another.  Both the split
// path and the append path run through guards of the selected
// Protection, so resizing is exactly as ABA-(in)vulnerable as the traffic
// around it — the deterministic resize corruption script provably fools
// ProtectionRaw and is rejected by every sounder regime.  Guards and tag
// widths are sized for maxCapacity up front, so the m(n) ledger prices the
// ceiling, not the current occupancy.  A negative ceiling is a constructor
// error; 0 leaves the map at its fixed capacity.  Structures without a
// growable shape accept the option and ignore it, and their reclaimers are
// sized for their own capacity.
func WithGrowth(maxCapacity int) Option {
	return func(o *options) { o.growTo = maxCapacity }
}

// WithTracing attaches a flight recorder to a structure: one fixed ring of
// `capacity` events per process (rounded up to a power of two, minimum 8),
// recording guard loads/commits/rejects/near-misses, allocator
// alloc/release/retire/exhaustion, reclaimer scans/epoch advances, and the
// begin/commit halves of the split operations.  Recording is allocation-free,
// lock-free and single-writer per ring; StructureTrace() merges the rings
// into one dump consistent with happens-before for every pair of events of
// which one orders processes (see TraceEvent.GSeq).  Without this option
// tracing costs one inlined nil check per operation and per recording site
// (an operation mark, a reclaimer scan) and nothing else: no guard or pool
// is wrapped, and the hot paths allocate nothing.  The m(n) price is
// explicit: n rings × (capacity+16) four-word slots plus n·(capacity/256+2)
// stamp words of fixed space.  The t(n) price is O(1) steps per event — a
// ticket fetch-add for an event that orders processes or a counter load for
// one that only observes, then four slot stores — plus one clock read per
// 256 events, and one store of the ring's count that publishes a whole
// operation's events when it returns.  An event outside an operation, or
// any event while a Watch is armed, pays that store itself.  So a dump
// shows an operation's events once it returns, once 16 of them are
// pending, or at once under an armed Watch: an unwatched dump of a process
// stalled mid-operation misses at most 15 of its events.  Object labels
// are indexed only on a traced build: a traced map names node 7's link
// guard "mnext[7]", an untraced one formats no per-node name at all, and
// registers, which are never traced, carry only their family label
// ("mkey") either way.  A negative capacity is a constructor error; 0
// builds no recorder.
func WithTracing(capacity int) Option {
	return func(o *options) { o.traceCap = capacity }
}

// TraceEvent is one flight-recorder event in a StructureTrace dump.
type TraceEvent struct {
	// GSeq is the global merge ticket.  Events that change shared state or
	// report a failed attempt to change it ("guard-commit",
	// "guard-reject", "guard-near-miss", "alloc", "exhaust", "release",
	// "retire", "grow", "epoch-advance") draw a unique ticket after the
	// transition completed; every other event only observes and carries
	// the last ticket drawn before it.  The dump is strictly ascending in
	// (GSeq, ticketed first, Pid, Seq), so each process's events keep their
	// Seq order, and it is consistent with happens-before for every pair of
	// events of which at least one is ticketed.  Two observations of
	// different processes with no ticket drawn between them may appear out
	// of real-time order.
	GSeq uint64
	// Seq is the per-process event number, and Pid the recording process.
	Seq uint64
	Pid int32
	// TS is a coarse wall-clock time in UnixNano: the recorder reads a
	// monotonic clock once per 256 events of a process and gives that
	// stamp to all of them, so TS never decreases along a process's events
	// and is never earlier than the recorder's construction — ordering
	// lives in GSeq, not here.
	TS int64
	// Kind names the transition ("guard-load", "guard-near-miss", "alloc",
	// "retire", "scan", "op-begin", ...) and Obj the object it happened on
	// ("head", "mhead[0]", "map", "pop", ...).
	Kind string
	Obj  string
	// A and B are the kind-specific operands (values, node indices, counts).
	A, B uint64
}

// String renders the event one-per-line, matching the -trace-dump format.
func (e TraceEvent) String() string {
	return fmt.Sprintf("#%d p%d/%d %s %s a=%d b=%d", e.GSeq, e.Pid, e.Seq, e.Kind, e.Obj, e.A, e.B)
}

func publicTrace(events []trace.Event) []TraceEvent {
	if events == nil {
		return nil
	}
	out := make([]TraceEvent, len(events))
	for i, e := range events {
		out[i] = TraceEvent{GSeq: e.GSeq, Seq: e.Seq, Pid: e.Pid, TS: e.TS, Kind: e.Kind.String(), Obj: e.Obj, A: e.A, B: e.B}
	}
	return out
}

// guardSpec resolves the options into the registry's guard matrix cell.
func (o options) guardSpec() registry.GuardSpec {
	p := o.protection
	if p == 0 {
		p = ProtectionLLSC
	}
	tagBits := o.tagBits
	if tagBits == 0 {
		tagBits = 16
	}
	return registry.GuardSpec{Regime: guard.Regime(p), ImplID: o.guardImpl, TagBits: tagBits}
}

// structOpts renders the apps-layer options for a constructor, resolving
// the reclamation scheme through the registry and building the flight
// recorder (nil unless WithTracing) — n is the process count the recorder's
// per-process rings are sized for.
func (o options) structOpts(n int, mk guard.Maker) ([]apps.StructOption, *trace.Recorder, error) {
	opts := []apps.StructOption{apps.WithMaker(mk)}
	var rec *trace.Recorder
	if o.traceCap > 0 {
		rec = trace.New(n, o.traceCap)
		opts = append(opts, apps.WithTrace(rec))
	}
	if o.guardedPool {
		opts = append(opts, apps.WithGuardedPool())
	}
	if o.growTo != 0 {
		opts = append(opts, apps.WithGrowth(o.growTo))
	}
	if o.reclaim != "" {
		// An explicit "none" still goes through the registry, so the
		// pass-through's retire/free counters stay comparable with hp and
		// epoch; only the absent option skips the wrapper entirely.
		rmk, err := registry.NewReclaimMaker(o.reclaim)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, apps.WithReclaimer(rmk))
	}
	return opts, rec, nil
}

// validate rejects explicit option values no structure can honor: a
// negative growth ceiling or recorder capacity (0 keeps meaning "off"), and
// a WithTagBits width that does not fit the structure's reference width
// (refBits).  An unset WithTagBits keeps the 16-bit default.
func (o options) validate(refBits uint) error {
	if o.growTo < 0 {
		return fmt.Errorf("abadetect: WithGrowth(%d): the growth ceiling cannot be negative; omit the option (or pass 0) for a fixed-capacity map", o.growTo)
	}
	if o.traceCap < 0 {
		return fmt.Errorf("abadetect: WithTracing(%d): the recorder capacity cannot be negative; omit the option (or pass 0) to build without tracing", o.traceCap)
	}
	if !o.tagBitsSet {
		return nil
	}
	if o.tagBits == 0 {
		return fmt.Errorf("abadetect: WithTagBits(0): a zero-width tag cannot distinguish any write (it silently degrades ProtectionTagged to raw); use WithProtection(ProtectionRaw) if unprotected references are intended")
	}
	if o.tagBits > 63 {
		return fmt.Errorf("abadetect: WithTagBits(%d): the tag and the reference value must pack into one 64-bit word", o.tagBits)
	}
	if Protection(o.guardSpec().Regime) == ProtectionTagged && refBits+o.tagBits > 64 {
		return fmt.Errorf("abadetect: WithTagBits(%d): %d tag bits + %d reference bits exceed the 64-bit word; use at most %d tag bits for this capacity",
			o.tagBits, o.tagBits, refBits, 64-refBits)
	}
	return nil
}

// Stack is a Treiber stack over a fixed pool of recycled index-based nodes,
// shared by n processes — the canonical ABA victim of §1, guarded by the
// selected Protection.
type Stack struct {
	inner *apps.Stack
	fp    Footprint
	tr    *trace.Recorder
}

// NewStack builds a stack for n processes with the given node capacity.
func NewStack(n, capacity int, opts ...Option) (*Stack, error) {
	o := buildOptions(opts)
	if err := o.validate(shmem.BitsFor(capacity + 1)); err != nil {
		return nil, err
	}
	f := o.factory()
	mk, err := registry.NewGuardMaker(f, n, o.guardSpec())
	if err != nil {
		return nil, fmt.Errorf("abadetect: stack: %w", err)
	}
	sopts, rec, err := o.structOpts(n, mk)
	if err != nil {
		return nil, fmt.Errorf("abadetect: stack: %w", err)
	}
	inner, err := apps.NewStack(f, n, capacity, 0, 0, sopts...)
	if err != nil {
		return nil, fmt.Errorf("abadetect: %w", err)
	}
	return &Stack{inner: inner, fp: footprintOf(f), tr: rec}, nil
}

// StructureTrace merges the flight recorder's per-process rings into one
// dump, ordered as TraceEvent.GSeq describes (nil unless built
// WithTracing).
func (s *Stack) StructureTrace() []TraceEvent { return publicTrace(s.tr.Merge()) }

// NumProcs returns n.
func (s *Stack) NumProcs() int { return s.inner.NumProcs() }

// Capacity returns the node-pool capacity.
func (s *Stack) Capacity() int { return s.inner.Capacity() }

// Protection returns the guard regime.
func (s *Stack) Protection() Protection { return Protection(s.inner.Protection()) }

// Footprint returns the base objects used (nodes, guards, and free list).
func (s *Stack) Footprint() Footprint { return s.fp }

// GuardMetrics returns the head guard's audit counters.
func (s *Stack) GuardMetrics() GuardMetrics { return publicMetrics(s.inner.GuardMetrics()) }

// FreelistMetrics returns the node pool's guard counters (zero unless built
// WithGuardedPool).
func (s *Stack) FreelistMetrics() GuardMetrics { return publicMetrics(s.inner.FreelistMetrics()) }

// Audit checks the structure at quiescence (no handle mid-operation).
func (s *Stack) Audit() StructureAudit {
	a := s.inner.Audit()
	return poolAudit(a.Corrupt(), a.String(), s.inner.PoolStats())
}

// Handle returns the endpoint for process pid in [0, n).  A handle must be
// used by at most one goroutine at a time.
func (s *Stack) Handle(pid int) (*StackHandle, error) {
	h, err := s.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &StackHandle{inner: h}, nil
}

// StackHandle is a process's stack endpoint.
type StackHandle struct {
	inner *apps.StackHandle
}

// Push pushes v.  It returns false when the node pool is exhausted.
func (h *StackHandle) Push(v Word) bool { return h.inner.Push(v) }

// Pop pops the top value.  It returns false when the stack is empty.
func (h *StackHandle) Pop() (Word, bool) { return h.inner.Pop() }

// Peek returns the top value without popping it.  It is wait-free and
// allocation-free: a seqlock read that accepts the value only if the head
// guard still validates, retrying a bounded number of times before falling
// back to the protected traversal.  ok=false means empty.
func (h *StackHandle) Peek() (Word, bool) { return h.inner.Peek() }

// IsEmpty reports whether the stack is empty, on the same wait-free read
// path as Peek.
func (h *StackHandle) IsEmpty() bool { return h.inner.IsEmpty() }

// PopBegin is an experiment hook: it performs the vulnerable first half of
// a pop — load the head node and its successor — and stops right before the
// conditional swing, exposing the ABA window the §1 scripts exploit.
func (h *StackHandle) PopBegin() (top, next int, empty bool) { return h.inner.PopBegin() }

// PopCommit completes the pop begun by PopBegin.  Under ProtectionRaw a
// stale commit can succeed and corrupt the structure — the demonstration;
// the other regimes reject it and the caller retries with a fresh PopBegin.
func (h *StackHandle) PopCommit() (Word, bool) { return h.inner.PopCommit() }

// Queue is a Michael–Scott FIFO queue with recycled index-based nodes,
// shared by n processes; head, tail, and every next pointer are guarded by
// the selected Protection.
type Queue struct {
	inner *apps.Queue
	fp    Footprint
	tr    *trace.Recorder
}

// NewQueue builds a queue for n processes with the given capacity (usable
// nodes beyond the internal dummy).
func NewQueue(n, capacity int, opts ...Option) (*Queue, error) {
	o := buildOptions(opts)
	if err := o.validate(shmem.BitsFor(capacity + 2)); err != nil {
		return nil, err
	}
	f := o.factory()
	mk, err := registry.NewGuardMaker(f, n, o.guardSpec())
	if err != nil {
		return nil, fmt.Errorf("abadetect: queue: %w", err)
	}
	sopts, rec, err := o.structOpts(n, mk)
	if err != nil {
		return nil, fmt.Errorf("abadetect: queue: %w", err)
	}
	inner, err := apps.NewQueue(f, n, capacity, 0, 0, sopts...)
	if err != nil {
		return nil, fmt.Errorf("abadetect: %w", err)
	}
	return &Queue{inner: inner, fp: footprintOf(f), tr: rec}, nil
}

// StructureTrace merges the flight recorder's per-process rings into one
// dump, ordered as TraceEvent.GSeq describes (nil unless built
// WithTracing).
func (q *Queue) StructureTrace() []TraceEvent { return publicTrace(q.tr.Merge()) }

// Capacity returns the number of usable nodes.
func (q *Queue) Capacity() int { return q.inner.Capacity() }

// Protection returns the guard regime.
func (q *Queue) Protection() Protection { return Protection(q.inner.Protection()) }

// Footprint returns the base objects used.
func (q *Queue) Footprint() Footprint { return q.fp }

// GuardMetrics returns the aggregated counters of every reference guard.
func (q *Queue) GuardMetrics() GuardMetrics { return publicMetrics(q.inner.GuardMetrics()) }

// FreelistMetrics returns the node pool's guard counters (zero unless built
// WithGuardedPool).
func (q *Queue) FreelistMetrics() GuardMetrics { return publicMetrics(q.inner.FreelistMetrics()) }

// Audit checks the structure at quiescence.
func (q *Queue) Audit() StructureAudit {
	a := q.inner.Audit()
	return poolAudit(a.Corrupt(), a.String(), q.inner.PoolStats())
}

// Handle returns the endpoint for process pid in [0, n).
func (q *Queue) Handle(pid int) (*QueueHandle, error) {
	h, err := q.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &QueueHandle{inner: h}, nil
}

// QueueHandle is a process's queue endpoint.
type QueueHandle struct {
	inner *apps.QueueHandle
}

// Enq appends v.  It returns false when the node pool is exhausted.
func (h *QueueHandle) Enq(v Word) bool { return h.inner.Enq(v) }

// Deq removes the oldest value.  It returns false when the queue is empty.
func (h *QueueHandle) Deq() (Word, bool) { return h.inner.Deq() }

// Peek returns the oldest value without dequeuing it, on the wait-free
// seqlock read path (bounded torn-read retries, then the protected
// traversal).  ok=false means empty.
func (h *QueueHandle) Peek() (Word, bool) { return h.inner.Peek() }

// IsEmpty reports whether the queue is empty, on the same wait-free read
// path as Peek.
func (h *QueueHandle) IsEmpty() bool { return h.inner.IsEmpty() }

// Map is a lock-free split-ordered hash map over a pool of recycled
// index-based nodes, shared by n processes — the canonical cache-shaped
// workload of the traffic layer.  All keys live on one list sorted by
// bit-reversed hash; a bucket is the run behind its dummy, and the dummy's
// next link is the bucket's guard.  Every such link and every node's next
// link is guarded by the selected Protection, and node recycling routes
// through the allocator (and, with WithReclamation, a safe-memory-
// reclamation scheme), so the remove–recycle–reinsert ABA of §1 is
// reproducible and preventable on a keyed structure exactly as on the
// stack and queue.  Built WithGrowth, the same map grows to its ceiling.
type Map struct {
	inner *kv.Map
	fp    Footprint
	tr    *trace.Recorder
}

// NewMap builds a map for n processes with the given node capacity.  The
// bucket count defaults to the capacity rounded up to a power of two.
func NewMap(n, capacity int, opts ...Option) (*Map, error) {
	o := buildOptions(opts)
	// A link word carries the mark bit and an index naming any node or
	// bucket dummy — and with WithGrowth the index must address the
	// ceiling's nodes and directory, not the initial ones, so the tag-width
	// check prices the largest map this one can become.
	if err := o.validate(kv.LinkBits(capacity, capacity, o.growTo)); err != nil {
		return nil, err
	}
	f := o.factory()
	mk, err := registry.NewGuardMaker(f, n, o.guardSpec())
	if err != nil {
		return nil, fmt.Errorf("abadetect: map: %w", err)
	}
	sopts, rec, err := o.structOpts(n, mk)
	if err != nil {
		return nil, fmt.Errorf("abadetect: map: %w", err)
	}
	inner, err := kv.NewMap(f, n, capacity, capacity, 0, 0, sopts...)
	if err != nil {
		return nil, fmt.Errorf("abadetect: %w", err)
	}
	return &Map{inner: inner, fp: footprintOf(f), tr: rec}, nil
}

// StructureTrace merges the flight recorder's per-process rings into one
// dump, ordered as TraceEvent.GSeq describes (nil unless built
// WithTracing).
func (m *Map) StructureTrace() []TraceEvent { return publicTrace(m.tr.Merge()) }

// NumProcs returns n.
func (m *Map) NumProcs() int { return m.inner.NumProcs() }

// Capacity returns the node-pool capacity — the current one, when the map
// was built WithGrowth and has appended segments.
func (m *Map) Capacity() int { return m.inner.Capacity() }

// MaxCapacity returns the growth ceiling (equal to Capacity unless built
// WithGrowth).
func (m *Map) MaxCapacity() int { return m.inner.MaxCapacity() }

// Growing reports whether the map was built WithGrowth.
func (m *Map) Growing() bool { return m.inner.Growing() }

// Buckets returns the bucket count — the current directory size, when the
// map was built WithGrowth and has split.
func (m *Map) Buckets() int { return m.inner.Buckets() }

// Protection returns the guard regime.
func (m *Map) Protection() Protection { return Protection(m.inner.Protection()) }

// Footprint returns the base objects used.
func (m *Map) Footprint() Footprint { return m.fp }

// GuardMetrics returns the aggregated counters of every reference guard
// (bucket heads and next links).
func (m *Map) GuardMetrics() GuardMetrics { return publicMetrics(m.inner.GuardMetrics()) }

// FreelistMetrics returns the node pool's guard counters (zero unless built
// WithGuardedPool).
func (m *Map) FreelistMetrics() GuardMetrics { return publicMetrics(m.inner.FreelistMetrics()) }

// Audit checks the structure at quiescence.
func (m *Map) Audit() StructureAudit {
	a := m.inner.Audit()
	out := poolAudit(a.Corrupt(), a.String(), m.inner.PoolStats())
	out.ReadRetries, out.ReadFallbacks = a.ReadRetries, a.ReadFallbacks
	out.Splits, out.SegmentAppends, out.ResizeRetries = a.Splits, a.SegmentAppends, a.ResizeRetries
	return out
}

// Handle returns the endpoint for process pid in [0, n).
func (m *Map) Handle(pid int) (*MapHandle, error) {
	h, err := m.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &MapHandle{inner: h}, nil
}

// MapHandle is a process's map endpoint.
type MapHandle struct {
	inner *kv.Handle
}

// Get returns the value bound to k.
func (h *MapHandle) Get(k Word) (Word, bool) { return h.inner.Get(k) }

// Put binds k to v.  It returns false when the node pool is exhausted — a
// fresh node is needed even to overwrite, since keys and values are
// immutable per node.
func (h *MapHandle) Put(k, v Word) bool { return h.inner.Put(k, v) }

// Delete removes k's binding and reports whether one existed.
func (h *MapHandle) Delete(k Word) bool { return h.inner.Delete(k) }

// DeleteBegin is an experiment hook: it logically deletes the first live
// k-node (marks its next link) and stops right before the physical unlink,
// exposing the ABA window the deterministic map corruption script exploits.
func (h *MapHandle) DeleteBegin(k Word) (cur, succ int, found bool) { return h.inner.DeleteBegin(k) }

// DeleteCommit completes the delete begun by DeleteBegin.  Under
// ProtectionRaw a stale commit can succeed after a recycle restored the
// link word — the demonstration; the other regimes reject it (the marked
// node is then unlinked by later traversals).  Any other operation on this
// handle between the two halves (Get, Put, Delete, DeleteBegin) abandons
// the pending unlink: DeleteCommit then returns false and leaves the marked
// node to the helping traversals, so a stale commit never double-fires.
func (h *MapHandle) DeleteCommit() bool { return h.inner.DeleteCommit() }

// EventFlag is the §1 busy-wait scenario: a signaler pulses (Signal, then
// Reset) and waiters Poll.  Whether an in-window pulse is observable is
// exactly the Protection ladder: raw misses it, a k-bit tag misses it at
// wraparound, LL/SC and detector guards never do.
//
// The event flag never conditionally swings its reference, so it also
// accepts detection-only guard implementations (WithGuardImpl "fig4",
// "unbounded", "boundedtag1") under ProtectionDetector.
type EventFlag struct {
	inner *apps.EventFlag
	fp    Footprint
}

// NewEventFlag builds an event flag for n processes.
func NewEventFlag(n int, opts ...Option) (*EventFlag, error) {
	o := buildOptions(opts)
	if err := o.validate(1); err != nil { // the flag guard holds 1 value bit
		return nil, err
	}
	f := o.factory()
	mk, err := registry.NewGuardMaker(f, n, o.guardSpec())
	if err != nil {
		return nil, fmt.Errorf("abadetect: event flag: %w", err)
	}
	inner, err := apps.NewProtectedEventFlag(f, n, 0, 0, apps.WithMaker(mk))
	if err != nil {
		return nil, fmt.Errorf("abadetect: %w", err)
	}
	return &EventFlag{inner: inner, fp: footprintOf(f)}, nil
}

// Protection returns the guard regime.
func (e *EventFlag) Protection() Protection { return Protection(e.inner.Protection()) }

// Footprint returns the base objects used.
func (e *EventFlag) Footprint() Footprint { return e.fp }

// GuardMetrics returns the flag guard's audit counters.
func (e *EventFlag) GuardMetrics() GuardMetrics { return publicMetrics(e.inner.GuardMetrics()) }

// Handle returns the endpoint for process pid in [0, n).
func (e *EventFlag) Handle(pid int) (*EventHandle, error) {
	h, err := e.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &EventHandle{inner: h}, nil
}

// EventHandle is a process's event-flag endpoint.
type EventHandle struct {
	inner *apps.EventHandle
}

// Signal raises the flag.
func (h *EventHandle) Signal() { h.inner.Signal() }

// Reset lowers the flag for reuse.
func (h *EventHandle) Reset() { h.inner.Reset() }

// Poll returns the flag's value and whether an event fired since this
// handle's previous Poll (set now, or any write the guard could detect).
func (h *EventHandle) Poll() (set, fired bool) { return h.inner.Poll() }
