// Package abadetect is a Go implementation of the algorithms and results of
//
//	Zahra Aghazadeh and Philipp Woelfel.
//	"On the Time and Space Complexity of ABA Prevention and Detection."
//	PODC 2015 (arXiv:1507.02722).
//
// The ABA problem: a process reads the same value twice from a shared
// object and concludes nothing happened in between — although the value may
// have changed and changed back.  The paper defines ABA-detecting registers
// (reads additionally report whether *any* write occurred since the reader's
// previous read), proves tight bounds on what detection costs when base
// objects are bounded, and gives matching wait-free algorithms.  This
// package exports those algorithms over 64-bit atomic words:
//
//   - NewDetectingRegister: the paper's Figure 4 — a linearizable wait-free
//     multi-writer ABA-detecting register from n+1 bounded registers with
//     O(1) step complexity (Theorem 3; space-optimal within two registers by
//     Theorem 1(a)).
//   - NewLLSC: the paper's Figure 3 — a linearizable wait-free LL/SC/VL
//     object from a single bounded CAS word with O(n) step complexity
//     (Theorem 2; time-optimal at this space by Corollary 1).
//   - NewLLSCConstantTime: the other end of the trade-off — O(1) steps from
//     one CAS word plus n registers (the Anderson–Moir / Jayanti–Petrovic
//     style announcement construction).
//   - NewDetectingRegisterFromLLSC: the paper's Figure 5 — an ABA-detecting
//     register from any LL/SC/VL object at two steps per operation
//     (Theorem 4); over NewLLSC this is Theorem 2's detecting register from
//     a single bounded CAS.
//   - NewDetectingRegisterSingleCAS: that composition, prebuilt.
//   - Baselines: NewDetectingRegisterUnboundedTag (the trivial solution
//     whose tag domain grows forever) and NewDetectingRegisterBoundedTag
//     (the folklore k-bit tag scheme, deliberately unsound at wraparound).
//
// # Implementation registry
//
// Every implementation is registered under a stable ID; Implementations
// lists the catalog (ID, theorem, footprint formula m(n), step bound t(n),
// bounded/unbounded, correct/foil) and NewDetectingRegisterByID /
// NewLLSCByID construct by ID.  The same registry drives the experiment
// harness, the verification tests, and the abalab CLI, so the catalog and
// the coverage cannot drift apart.
//
// # Backends
//
// Constructors allocate their base objects from a Backend, selected with
// WithBackend: NativeBackend (plain atomic words, the default), SlabBackend
// (all of an object's base objects contiguous in one slab of atomic words —
// best cache behavior for sequential and read-mostly traffic), PaddedBackend
// (one cache line per object — no false sharing under concurrent writes),
// NewCountingBackend (per-process shared-memory step counts, the paper's
// time measure), and NewAuditBackend (the used value domain per object, the
// paper's bounded/unbounded separation).  The algorithms are identical on
// every backend; only the substrate changes.
//
// The direct substrates (native, slab, padded) devirtualize the hot paths:
// algorithms bind raw atomic-word accessors at construction and Handle()
// time, so every shared step is one inlined atomic instruction and every
// operation runs allocation-free.  The instrumented backends keep the
// dynamic-call path so their measurements stay exact.
//
// # Application structures and guards
//
// The paper's §1 motivation ships as a public application layer: NewStack
// (Treiber stack), NewQueue (Michael–Scott queue), NewEventFlag (the
// resettable busy-wait flag), and NewMap (a split-ordered lock-free hash
// map).  Each structure's mutable references — stack head, queue head/tail
// and per-node next pointers, the flag itself, the map's bucket heads and
// marked next links — are Guards (internal/guard): a unified Load /
// conditional-Commit / Validate abstraction whose regime is a constructor
// option.  WithProtection selects
// the §1 ladder (ProtectionRaw, the ABA victim; ProtectionTagged with
// WithTagBits; ProtectionLLSC, the immune default; ProtectionDetector, the
// Figure 5 detecting view that also counts every prevented ABA),
// WithGuardImpl puts any registered implementation behind the guard, and
// WithGuardedPool routes the node allocator's free list through a guard of
// the same regime, making free-list ABA observable.  GuardMetrics exposes
// commits, rejections, near-misses (detected-and-prevented ABAs), and dirty
// loads; Audit checks structural integrity at quiescence; the StackHandle's
// PopBegin/PopCommit hooks open the §1 window by hand (the queue and map
// scripts stop a whole Deq or Delete at the same point on the simulator,
// internal/sim).  abalab -run E11 runs the whole
// structure × guard × implementation matrix (experiment E11).
//
// The map (internal/kv) is the keyed cache shape: one split-ordered list of
// recycled pool nodes under the Michael-style marked-link protocol, where
// bucket b is the run that starts at b's dummy and the bucket's guard is
// the dummy's own next link.  A link word packs (list index, mark bit); a
// put links its fresh node just before the first node of its key's sort
// position, a delete marks its victim's next link with a conditional commit
// — freezing the link — before unlinking it past the predecessor, and
// traversals help finish unlinks.  Keys and values are immutable per node
// (an overwrite links a shadowing node and kills the older one), so reads
// never race updates.  In m(n)/t(n) vocabulary the map spends one guard
// per bucket plus one per node next-link (B + cap guards over 2·cap value
// registers) and walks O(run) guard hops per operation — each hop paying
// the selected regime's t(n) — which is exactly the per-reference cost
// model the paper prices, multiplied by a traversal.
//
// # Traffic layer
//
// internal/load is the measurement half of the production story: an open-
// and closed-loop traffic generator that drives any registered structure
// through the benchmark driver seam.  Closed-loop profiles measure service
// time under saturation; open-loop profiles schedule arrivals (Poisson or
// bursty) at a fixed rate and measure latency from the scheduled arrival,
// so queueing delay is charged to the operation (no coordinated omission).
// Keyed structures receive Zipf-skewed key popularity and a configurable
// get/put/delete mix.  Latencies land in allocation-free log2-bucket
// histograms — the record path is pinned at 0 allocs/op — and report
// p50/p99/p999.  Experiment E13 (abalab -run E13) sweeps map × regime ×
// reclaimer × profile: the table where a tag's extra word, a detector's
// extra steps, and a reclaimer's deferred frees stop being asymptotics and
// become tail latency.
//
// # Read path
//
// Read-mostly traffic gets its own protocol.  A guarded read normally pays
// the write-side machinery — a protection publish per node visited, a
// shared counter bump per op — which serializes exactly the workload that
// should scale.  The wait-free observers (the map's Get, the stack's and
// queue's Peek and IsEmpty) instead run a seqlock read: traverse with no
// hazard slot, no epoch pin, and no allocation, then accept the dependent
// reads only if the links they hung off still Validate.  Soundness is the
// regime's detection power restated: an ABA-detecting register answers
// "did any write intervene?" in one read — t(n) = O(1) over the m(n) = n+2
// registers of Figure 5 — so the detector's dirty bit is the seqlock
// check; tags and LL/SC validate at their usual t(n); raw validates
// value-blind, which is the §1 caveat, so raw under a reclaimer keeps the
// protected path.  The folklore alternative — an unbounded sequence number
// bumped per write, the scheme §1 ascribes to practice — costs O(1) steps
// but unbounded space, the corner of the paper's trade-off the bounded
// constructions exist to avoid.  A torn read retries a bounded number of
// times, then falls back to the guarded lock-free mainline, so readers are
// wait-free and progress never regresses; the retry and fallback counts
// land in the structure audits.  Experiment E14 (abalab -run E14) sweeps a
// 90/5/5 read-mostly profile across structure × regime × reclaimer ×
// worker count and reports per-worker scaling.
//
// # Growth
//
// WithGrowth(maxCapacity) makes the map resizable: it starts at its
// constructed capacity and expands live — under concurrent gets, puts, and
// deletes — up to the ceiling, with no stop-the-world phase and no rehash.
// The map is split-ordered (Shalev–Shachnai) whether or not it grows: every
// node lives in one list sorted by bit-reversed hash, so a directory
// doubling moves no node — it links one dummy per new bucket at its
// bit-reversed sort position.  A dummy is no pool node and owns no
// register: its index and sort key are computed, and its next link is the
// bucket's guard.  The directory doubles eagerly: the put whose threshold
// check crosses the load factor links all S new dummies, then publishes
// size 2S, under a mutex no other operation waits on.  Node storage grows
// in geometric segments through the pool seam (nodes are array indices, so
// growth mints fresh indices and never relocates one), and the hp/epoch
// reclaimers are sized for the ceiling up front, so retirement accounting
// is untouched mid-resize.
//
// In m(n)/t(n) vocabulary: space is B + cap guards plus 2·cap registers,
// plus a node-capacity word when the ceiling exceeds cap and a
// directory-size word when the ceiling's largest directory,
// floorPow2(ceiling/6), exceeds B, where B and cap grow geometrically to the
// ceiling — the map only ever pays for the capacity tier it has reached, at
// ≤2x the live requirement.  A doubling costs S dummy links inside one put,
// O(1) amortized guard operations per insert (each segment append is
// likewise one publication), each paying the selected regime's t(n) like any
// other guarded step.  A directory split commits through the same Guards as
// normal traffic, which makes resizing a new ABA surface rather than a
// trusted phase: the node a splitter's walk stopped before can be deleted
// and recycled into its armed link word bit-for-bit.  The deterministic
// scenario runs the §1 ladder over exactly that interleaving (raw+none
// links the new dummy out of order and loses a binding; tagged/llsc/
// detector reject it as a counted near-miss; hp/epoch prevent the recycle
// outright), and StructureAudit reports Splits, SegmentAppends, and
// ResizeRetries alongside the structural checks.  Experiment E15 (abalab
// -run E15) sweeps the growth matrix to 1M keys / 10M ops under live
// traffic.
//
// # Tail latency: admission control
//
// The load tier bounds the tail with admission.  An open-loop profile with
// a Queue bound sheds (or blocks) arrivals that are more than
// Queue·interarrival behind schedule, so the latency table reports the
// p50/p99/p999 of *admitted* operations plus an explicit shed count —
// goodput (admitted ops per second) and shed are reported separately rather
// than letting overload masquerade as throughput.
//
// # Safe memory reclamation
//
// WithReclamation selects the defense the guards never see: "hp" (hazard
// pointers), "epoch" (epoch-based reclamation), "epoch:auto" (a self-tuning
// advance cadence), or "none" (the explicit immediate-reuse pass-through,
// also the default).  Under hp or epoch a removed node retires into limbo
// and re-enters the allocator only once no process protection can cover
// it, so the §1 recycle-inside-the-window ABA never forms — a ProtectionRaw
// structure passes the deterministic corruption scripts with zero
// near-misses, because prevention happens by allocation discipline rather
// than detection.
//
// The trade-off is the paper's m(n)/t(n) vocabulary applied to SMR.  A
// k-bit tag spends k bits of every guarded word and fails after 2^k
// in-window writes (Theorem 1(a) prices that failure); LL/SC and detecting
// registers spend m(n) base objects and t(n) steps per access to detect
// every repeat.  Hazard pointers instead spend m(n) = n·H single-writer
// registers (H = 2 published slots per process) plus deferred-node lists,
// at O(1) expected amortized steps with an O(n·H) scan every threshold
// retires, and a stalled process defers only the ≤H nodes it protects.
// Epoch reclamation is cheaper — m(n) = n+1 objects, O(1) amortized — but
// its epoch counter is unbounded (the same axis that separates the paper's
// bounded and unbounded constructions) and one stalled pinned process
// blocks every reuse in the system.  Audit surfaces the whole ledger:
// retired/reclaimed/deferred counts, reclamation stalls, and pool
// exhaustions.  abalab -run E12 runs the structure × regime × reclaimer
// matrix (experiment E12).
//
// Limbo — the retired-but-not-freed residue — is itself m(n) spent to buy
// t(n): every deferred node is pool capacity rented so that Retire can be
// O(1) instead of paying the sweep inline.  The rent compounds with the
// epoch advance cadence: a handle that accumulates k retires per advance
// amortizes the O(n) announcement sweep k-fold but parks up to n·k nodes,
// and on a tight pool that lag surfaces as allocation misses no local
// drain can recover, because the stranded nodes sit in other handles'
// pending lists.  "epoch:auto" closes the loop — allocator backpressure
// and limbo pressure snap the cadence to 1, empty drains relax it
// geometrically toward the min(2n, capacity/n) ceiling — keeping epoch's
// n+1-register m(n) while tracking hp's alloc-miss behavior under
// write-leaning churn.  The map's retirement is batched (RetireBatch
// through the pool seam: each operation's kill set is flushed at guard
// release), so is the return trip (the nodes one reclaimer call frees
// reach the pool as one batch), and every hp threshold sweep reads all
// n·H hazard registers.
// The reclamation-pressure matrix (experiment E16, abalab -run E16) prices
// all of this.
//
// # Observability
//
// WithTracing(capacity) attaches a flight recorder (internal/trace) to a
// structure: one single-writer event ring per process, capacity (rounded up
// to a power of two) events deep, recording the guard, allocator,
// reclaimer, and operation transitions as they happen.  In the paper's
// vocabulary the recorder costs m(n) = n rings × (capacity+lagMax)
// four-word slots, lagMax = 16, plus n·(capacity/256+2) cohort-stamp words
// — allocated once at construction, never grown — and t(n) = O(1) steps
// per event, none of them a lock: a fetch-add on a global ticket for an
// event that orders processes (a commit, reject or near-miss, an alloc,
// exhaust, release or retire, a grow, an epoch advance), drawn after the
// traced transition completes, or a load of that counter for one that only
// observes; then four ring-local slot stores.  On top of that comes one
// store of the ring's count per operation, which publishes all of its
// events when it returns; an event outside an operation, or any event
// while a watch is armed, pays that store itself.  Readers see an
// operation's events when it returns, once lagMax of them are pending, or
// at once under an armed watch, so an unwatched dump of a process stalled
// mid-operation misses at most lagMax-1 of its events.  One monotonic
// clock read per 256 events stamps a cohort.  Sorting a merged
// dump by (ticket, ticketed first, process, sequence) keeps each process's
// order and is consistent with happens-before for every pair of events of
// which one is ticketed, without stopping any writer; only two
// observations of different processes with no ticket between them may
// trade places.
// Untraced structures carry a nil recorder, and every hook and every
// operation's bracket compiles to an inlined nil check — the hot paths
// stay allocation-free and within noise
// of the untraced build (pinned by the hot-path tests and experiment E17).
// StructureTrace returns the merged dump; the deterministic ABA scenarios
// arm a Watch that freezes the rings at the first near-miss (or attaches
// the full dump when a raw guard is silently fooled), so every scenario
// verdict ships with the incident flight record that explains it.  The
// abalab -trace-dump command pretty-prints those records, and abalab -serve
// exports live metrics (expvar, Prometheus text, pprof, and the current
// trace as JSON) from a structure under churn.
//
// # Process model
//
// Every object is created for a fixed number of processes n; each process
// (goroutine) obtains its own handle via Handle(pid) with a distinct pid in
// [0, n).  Handles carry the paper's process-local state and must not be
// shared between goroutines; distinct handles of one object may be used
// concurrently.
//
// # Repository layout
//
// The exported API is a thin facade over internal packages that also power
// the paper's experiments: a deterministic shared-memory simulator with
// adversarial schedules (internal/sim), a linearizability checker
// (internal/check), a configuration-space model checker reproducing the
// lower-bound proofs as searches (internal/machine, internal/lowerbound),
// and application workloads (internal/apps).  README's Experiment index
// lists the experiments E1–E17 and what each reproduces.
package abadetect
