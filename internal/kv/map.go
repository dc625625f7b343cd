// Package kv is the keyed application workload the traffic layer drives: a
// sharded lock-free hash map over the same Guard and reclamation substrate
// as the stack and queue of internal/apps.
//
// The map is the canonical cache shape — B bucket heads, each the entry of a
// chained list of pool nodes — and it is built so *every* mutable link rides
// a guard.Guard: the bucket heads and each node's next pointer.  The list
// protocol is the Michael-style marked-link scheme adapted to index-based
// nodes:
//
//   - a link word packs (successor index << 1 | mark); the mark bit on a
//     node's next pointer is the node's logical-delete flag, set by a
//     conditional commit so the link freezes before the node is unlinked;
//   - inserts happen only at the bucket head (insert-at-head is the
//     ABA-immune half of the Treiber protocol), so interior links change
//     only by mark and unlink commits;
//   - a Put always inserts a fresh node and then kills any older node of the
//     same key behind the first live match, so a node's key and value are
//     immutable from link to unlink — reads never race updates;
//   - traversals help: a walker that finds a marked node unlinks it
//     (conditionally, against the predecessor link it has loaded and, under
//     a reclaimer, protected) and releases it to the pool.
//
// The ABA lives exactly where the paper says it lives: between loading a
// predecessor link and committing past it, the successor node can be
// deleted, recycled through the allocator, and re-linked, so a raw commit
// swings a bucket onto a free node.  MapABAScenario replays that
// deterministically; the tagged, LL/SC, and detector regimes reject the
// stale commit, and the hp/epoch reclaimers prevent the recycle leg outright
// — the same ladder the stack and queue walk, on the keyed workload a
// production cache serves.
package kv

import (
	"fmt"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Word is the key and value type.
type Word = shmem.Word

// Protection re-exports the apps regime selector.
type Protection = apps.Protection

// packLink packs a successor index and a mark bit into one link word.
func packLink(idx int, marked bool) Word {
	w := Word(idx) << 1
	if marked {
		w |= 1
	}
	return w
}

// linkIdx unpacks the successor index of a link word.
func linkIdx(w Word) int { return int(w >> 1) }

// linkMarked reports the mark bit of a link word.
func linkMarked(w Word) bool { return w&1 != 0 }

// Map is a sharded lock-free hash map over a fixed pool of index-based
// nodes, shared by n processes.  Every bucket head and every node's next
// pointer is a Guard, so the map runs under every Protection regime, over
// any registered guard implementation, on any substrate — and its node
// recycling routes through the allocator seam, so any reclaim scheme can
// sit underneath.
type Map struct {
	n        int
	capacity int
	buckets  int
	mask     Word

	key  []shmem.Register // key[i] of node i (1-based); immutable while linked
	val  []shmem.Register // val[i] of node i; immutable while linked
	next []guard.Guard    // next[i]: packed (succ<<1 | mark)
	head []guard.Guard    // head[b]: packed (idx<<1), never marked

	pool apps.Pool

	// Read-path counters (striped: retries happen exactly under the write
	// contention a shared counter would amplify).  The clean fast path bumps
	// nothing — a per-Get counter would reintroduce the shared write the
	// path exists to remove.
	readRetries   *shmem.StripedCounter // torn fast-path attempts restarted
	readFallbacks *shmem.StripedCounter // Gets that fell back to the guarded path

	// grow is the split-ordered resize state of a map built
	// apps.WithGrowth; nil selects the fixed-capacity protocol above
	// untouched (the key/val/next/head slices are then unused — growth mode
	// keeps every per-node array in a Spine instead; see grow.go).
	grow *growth

	// tr is the flight recorder of a map built apps.WithTrace; nil means no
	// tracing anywhere on the hot path.
	tr *trace.Recorder
}

// NewMap builds a map for n processes with the given node capacity and
// bucket count (rounded up to a power of two; pass 1 to force every key
// into one chain, as the deterministic scenarios do).  tagBits is only used
// by the Tagged regime; both prot and tagBits are ignored when
// apps.WithMaker supplies the guards.
func NewMap(f shmem.Factory, n, capacity, buckets int, prot Protection, tagBits uint, opts ...apps.StructOption) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("kv: map needs n >= 1, got %d", n)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("kv: map needs capacity >= 1, got %d", capacity)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("kv: map needs buckets >= 1, got %d", buckets)
	}
	buckets = nextPow2(buckets)
	cfg := apps.ResolveStructOptions(f, n, prot, tagBits, opts)
	if cfg.GrowTo > 0 {
		return newGrowMap(f, cfg, n, capacity, buckets)
	}
	idxBits := shmem.BitsFor(capacity + 1)
	linkBits := idxBits + 1 // the mark bit rides beside the index
	m := &Map{
		n:        n,
		capacity: capacity,
		buckets:  buckets,
		mask:     Word(buckets - 1),
		key:      make([]shmem.Register, capacity+1),
		val:      make([]shmem.Register, capacity+1),
		next:     make([]guard.Guard, capacity+1),
		head:     make([]guard.Guard, buckets),

		readRetries:   shmem.NewStripedCounter(),
		readFallbacks: shmem.NewStripedCounter(),
		tr:            cfg.Trace,
	}
	var err error
	for i := 1; i <= capacity; i++ {
		m.key[i] = f.NewRegister(fmt.Sprintf("mkey[%d]", i), 0)
		m.val[i] = f.NewRegister(fmt.Sprintf("mval[%d]", i), 0)
		if m.next[i], err = cfg.Maker(fmt.Sprintf("mnext[%d]", i), linkBits, 0); err != nil {
			return nil, fmt.Errorf("kv: map next[%d] guard: %w", i, err)
		}
	}
	for b := range m.head {
		if m.head[b], err = cfg.Maker(fmt.Sprintf("mhead[%d]", b), linkBits, 0); err != nil {
			return nil, fmt.Errorf("kv: map head[%d] guard: %w", b, err)
		}
	}
	if !m.head[0].Conditional() {
		return nil, fmt.Errorf("kv: map needs conditional guards; %s guard is detection-only", m.head[0].Regime())
	}
	if m.pool, err = apps.NewPool(f, cfg, "map", n, capacity, idxBits); err != nil {
		return nil, err
	}
	return m, nil
}

// nextPow2 rounds v up to the next power of two.
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// NumProcs returns n.
func (m *Map) NumProcs() int { return m.n }

// Capacity returns the node-pool capacity — the current growth snapshot for
// a map built apps.WithGrowth.
func (m *Map) Capacity() int {
	if m.grow != nil {
		return m.grow.capacityNow(-1)
	}
	return m.capacity
}

// MaxCapacity returns the node-capacity ceiling: the growth ceiling for a
// map built apps.WithGrowth, the fixed capacity otherwise.
func (m *Map) MaxCapacity() int {
	if m.grow != nil {
		return m.grow.maxCapacity
	}
	return m.capacity
}

// Growing reports whether the map was built apps.WithGrowth.
func (m *Map) Growing() bool { return m.grow != nil }

// Buckets returns the bucket count — the current directory size for a map
// built apps.WithGrowth.
func (m *Map) Buckets() int {
	if m.grow != nil {
		return int(m.grow.size.Read(-1))
	}
	return m.buckets
}

// Protection returns the reference-guard regime.
func (m *Map) Protection() Protection {
	if m.grow != nil {
		return m.grow.head.Get(0).Regime()
	}
	return m.head[0].Regime()
}

// GuardMetrics returns the aggregated audit counters of every reference
// guard (bucket heads and all next pointers).
func (m *Map) GuardMetrics() guard.Metrics {
	var agg guard.Metrics
	if m.grow != nil {
		for b := 0; b < m.grow.head.Len(); b++ {
			agg = agg.Add(m.grow.head.Get(b).Metrics())
		}
		for i := 1; i < m.grow.next.Len(); i++ {
			agg = agg.Add(m.grow.next.Get(i).Metrics())
		}
		return agg
	}
	for _, g := range m.head {
		agg = agg.Add(g.Metrics())
	}
	for i := 1; i < len(m.next); i++ {
		agg = agg.Add(m.next[i].Metrics())
	}
	return agg
}

// FreelistMetrics returns the node pool's guard counters (zero unless the
// map was built apps.WithGuardedPool).
func (m *Map) FreelistMetrics() guard.Metrics { return m.pool.Metrics() }

// PoolStats returns the allocator's exhaustion and reclamation counters.
func (m *Map) PoolStats() apps.PoolStats { return m.pool.Stats() }

// bucket hashes k to its chain (murmur3 finalizer, deterministic).
func (m *Map) bucket(k Word) int {
	if m.mask == 0 {
		return 0
	}
	return int(hash64(k) & m.mask)
}

// Handle returns process pid's handle.  Handles are single-goroutine.
func (m *Map) Handle(pid int) (*Handle, error) {
	if pid < 0 || pid >= m.n {
		return nil, fmt.Errorf("kv: pid %d out of range [0,%d)", pid, m.n)
	}
	h := &Handle{
		m:    m,
		pid:  pid,
		lane: shmem.StripeFor(pid),
		ring: m.tr.Ring(pid),
	}
	if m.grow == nil {
		h.head = make([]guard.Handle, m.buckets)
		h.next = make([]guard.Handle, len(m.next))
	} else {
		// Growth mode: lazy per-guard handle tables, sized to the current
		// spines and re-extended after a resize (handles are
		// single-goroutine, so plain slice growth suffices).
		h.headG = make([]guard.Handle, m.grow.head.Len())
		h.nextG = make([]guard.Handle, m.grow.next.Len())
	}
	var err error
	if h.pool, err = m.pool.Handle(pid); err != nil {
		return nil, err
	}
	h.smr = h.pool.Reclaiming()
	// The wait-free fast path skips the hazard/epoch publish entirely; that
	// is sound whenever torn reads are detectable.  Index-based nodes make
	// the traversal memory-safe without protection (arrays are never freed),
	// and the sound regimes turn any recycle under the reader into a failed
	// Validate.  Raw cannot — its value-blind Validate is the §1 blindness —
	// so under a reclaimer a raw-guarded map keeps the protected read path,
	// which is what makes raw+hp/raw+epoch reads sound today.  Raw *without*
	// a reclaimer already reads unprotected and value-blind on the mainline,
	// so the fast path changes nothing there.
	h.fastOK = !h.smr || m.Protection() != guard.Raw
	if m.grow != nil {
		return h, nil
	}
	for b := range m.head {
		if h.head[b], err = m.head[b].Handle(pid); err != nil {
			return nil, err
		}
	}
	for i := 1; i < len(m.next); i++ {
		if h.next[i], err = m.next[i].Handle(pid); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Handle is a per-process map endpoint.
type Handle struct {
	m      *Map
	pid    int
	lane   int  // read-counter stripe, shmem.StripeFor(pid)
	fastOK bool // wait-free read fast path is sound for this configuration
	head   []guard.Handle
	next   []guard.Handle
	pool   apps.PoolHandle
	smr    bool        // pool defers releases: run the protect/revalidate fence
	ring   *trace.Ring // nil without apps.WithTrace; Record on nil is a no-op

	// Growth-mode state: lazy handle tables over the guard spines, plus the
	// amortized threshold-check tick (see grow.go).
	headG    []guard.Handle
	nextG    []guard.Handle
	growTick int

	// ReadStall, when non-nil, runs inside every fast-path read attempt
	// right after the key load and before the validating fence — the
	// deterministic stall point the torn-read scripts interleave a writer
	// into.  Test/experiment hook, like DeleteBegin's split.
	ReadStall func()

	// MaxSpin bounds the traversal/retry steps of one operation; 0 means
	// unbounded (the lock-free default).  A raw-guarded map that has been
	// ABA-corrupted can acquire a cycle through a bucket chain, turning a
	// traversal into a livelock — benchmark and race harnesses set a bound
	// so a corrupted foil fails operations instead of hanging.
	MaxSpin int
	// spunOut records that a MaxSpin budget ran out: a chain is livelocked
	// for this handle, and matrix workers stop issuing operations on it.
	spunOut bool

	// pending unlink armed by DeleteBegin (the experiment hook).
	pendingPrev guard.Handle
	pendingCur  int
	pendingSucc Word

	// retireBuf batches this operation's unlinked nodes (the helped unlinks
	// of a traversal plus the sweep's own kills) into one RetireBatch at the
	// operation boundary — one epoch stamp and one cadence check for the
	// whole kill set instead of one per node.  SMR only: without a reclaimer
	// releases stay immediate, keeping the FIFO recycling order the
	// deterministic corruption scripts depend on.
	retireBuf []int
}

// spent reports whether a bounded handle has used up its spin budget, and
// records it in spunOut when it has.
func (h *Handle) spent(spins int) bool {
	if h.MaxSpin > 0 && spins >= h.MaxSpin {
		h.spunOut = true
		return true
	}
	return false
}

// endOp closes an operation's reclamation window: protections drop, the
// operation's buffered kills retire as one batch, and a miss — this
// process's idle moment — drains its own deferred nodes so an idle reader
// cannot strand every node in limbo while writers starve.  The flush runs
// after the Clear so this process's own protections cannot defer its own
// retirements.
func (h *Handle) endOp(miss bool) {
	if !h.smr {
		return
	}
	h.pool.Clear()
	h.flushRetires()
	if miss {
		h.pool.Drain()
	}
}

// flushRetires hands the operation's buffered kills to the pool in one
// batch.  Callers that bypass endOp (the budget-exhausted put) call it
// directly so no node is ever stranded in the private buffer.
func (h *Handle) flushRetires() {
	if len(h.retireBuf) > 0 {
		h.pool.ReleaseBatch(h.retireBuf)
		h.retireBuf = h.retireBuf[:0]
	}
}

// retire hands a node the caller exclusively owns back to the pool.  Under
// a reclaimer all protections are cleared first — this process's own hazard
// or pin must not defer the retirement (callers restart their traversal
// afterwards, so no stale trust survives the clear) — and the node joins
// the operation's retire batch, flushed at the operation boundary.
func (h *Handle) retire(idx int) {
	if h.smr {
		h.pool.Clear()
		h.retireBuf = append(h.retireBuf, idx)
		return
	}
	h.pool.Release(idx)
}

// seek walks bucket b looking for the (skip+1)-th live node with key k,
// helping unlink any marked node it passes.  On return:
//
//   - prev is the guard handle of the link pointing at cur (a bucket head
//     or a predecessor's next pointer), armed by its last Load — ready for
//     the caller's mark-then-unlink commits;
//   - cur is the matching node (0 when no such match exists, in which case
//     prev is armed at the end of the chain);
//   - curNext is cur's packed next word as loaded (unmarked);
//   - ok is false when the spin budget ran out.
//
// The traversal follows the Load → Protect → Validate → dereference fence:
// under a reclaimer each visited node is published in one of the two
// protection slots (alternating, so the predecessor stays covered) and the
// predecessor link is re-validated after the publish; without a reclaimer
// the dependent reads are validated after the fact, which the sound regimes
// turn into a restart whenever the chain moved underneath — and the raw
// regime can only compare values, which is the §1 vulnerability.
func (h *Handle) seek(b int, k Word, skip int, spins *int) (prev guard.Handle, cur int, curNext Word, ok bool) {
retry:
	for {
		if h.spent(*spins) {
			return nil, 0, 0, false
		}
		*spins++
		prev = h.head[b]
		prevW, _ := prev.Load()
		slot, remaining := 0, skip
		for {
			if h.spent(*spins) {
				return nil, 0, 0, false
			}
			*spins++
			cur = linkIdx(prevW)
			if cur == 0 {
				return prev, 0, 0, true
			}
			if h.smr {
				h.pool.Protect(slot, cur)
				if !prev.Validate() {
					continue retry // cur moved before the protection was visible
				}
			}
			curNext, _ = h.next[cur].Load()
			ck := h.m.key[cur].Read(h.pid)
			if !h.smr && !prev.Validate() {
				// Without a reclaimer the node could have been unlinked and
				// recycled between the loads; a changed predecessor link is
				// the tell (exact under the sound regimes, value-blind under
				// raw).
				continue retry
			}
			if linkMarked(curNext) {
				// cur is logically deleted: help unlink it.  The commit is
				// conditional on the predecessor link still naming cur, so
				// exactly one helper wins and releases the node.
				if !prev.Commit(curNext &^ 1) {
					continue retry
				}
				h.release(cur, slot)
				prevW, _ = prev.Load() // re-arm prev, continue in place
				continue
			}
			if ck == k {
				if remaining == 0 {
					return prev, cur, curNext, true
				}
				remaining--
			}
			// Advance: cur becomes the predecessor; its next handle is
			// already armed by the Load above.  The slots alternate so the
			// new predecessor stays protected while the next node is
			// published into the slot its own predecessor vacated.
			prev = h.next[cur]
			prevW = curNext
			slot ^= 1
		}
	}
}

// release returns a node this process just unlinked mid-traversal.  The
// node's own protection slot is dropped first (a published index would
// defer its retirement against ourselves); the other slot — still covering
// the predecessor — stays up because the traversal continues from it.
// Under a reclaimer the node joins the operation's retire batch: it is
// unreachable and not yet allocatable (the buffer is private), so deferring
// the retirement to the operation boundary only delays reuse, never safety.
func (h *Handle) release(idx, slot int) {
	if h.smr {
		h.pool.Protect(slot, 0)
		h.retireBuf = append(h.retireBuf, idx)
		return
	}
	h.pool.Release(idx)
}

// Get returns the value bound to k.
//
// The common case is the wait-free seqlock fast path (getFast): an
// unprotected traversal whose key/value snapshot is accepted only if the
// link guards still validate — no hazard slot, no epoch pin, no retire
// drain, no allocation, and on a clean read not a single shared write.
// After fastGetRetries torn attempts Get falls back to the guarded
// traversal (counted in MapAudit.ReadFallbacks), which is lock-free and
// helps unlink, so progress is never worse than before the fast path.
func (h *Handle) Get(k Word) (Word, bool) {
	if h.m.grow != nil {
		return h.getGrow(k)
	}
	if h.fastOK {
		if v, ok, done := h.getFast(k); done {
			return v, ok
		}
		h.m.readFallbacks.Add(h.lane, 1)
	}
	b := h.m.bucket(k)
	spins := 0
	for {
		prev, cur, _, ok := h.seek(b, k, 0, &spins)
		if !ok || cur == 0 {
			h.endOp(true)
			return 0, false
		}
		v := h.m.val[cur].Read(h.pid)
		if !h.smr && !prev.Validate() {
			continue // the node moved while we read it: retry
		}
		h.endOp(false)
		return v, true
	}
}

// fastGetRetries bounds the fast path's torn-read restarts before Get falls
// back to the guarded traversal: the reader stays wait-free (its step count
// is bounded regardless of writer behavior), and sustained write pressure
// degrades to the lock-free mainline instead of starving the read.
const fastGetRetries = 3

// getFast runs the seqlock read protocol over the bucket chain.  done=false
// means every attempt was torn and the caller must take the guarded path.
func (h *Handle) getFast(k Word) (v Word, ok, done bool) {
	b := h.m.bucket(k)
	for attempt := 0; attempt < fastGetRetries; attempt++ {
		if v, ok, clean := h.tryGetFast(b, k); clean {
			return v, ok, true
		}
		h.m.readRetries.Add(h.lane, 1) // one bump per torn attempt
	}
	return 0, false, false
}

// tryGetFast is one wait-free attempt: walk the chain reading links, keys,
// and — on a match — the value, accepting each dependent read only if the
// link it hangs off still validates (the seqlock fence; guard.ReadConsistent
// is this protocol for a single reference, inlined here because the payload
// spans a chain).  clean=false reports a torn attempt.
//
// The walk takes no protection slot: nodes are array indices, so a recycled
// node is readable garbage, never a dangling pointer, and the validating
// fence rejects the garbage.  Marked nodes are skipped, not helped — the
// read path must not write.  The hop bound covers the one structural hazard
// validation cannot see mid-walk: a chain that acquired a cycle (possible
// only after a raw-regime corruption) or grew past capacity under
// concurrent inserts, either of which just turns the attempt torn.
func (h *Handle) tryGetFast(b int, k Word) (v Word, ok, clean bool) {
	prev := h.head[b]
	prevW, _ := prev.Load()
	for hops := 0; ; hops++ {
		cur := linkIdx(prevW)
		if cur == 0 {
			// Miss: accept only if the final link is still current.
			if !prev.Validate() {
				return 0, false, false
			}
			return 0, false, true
		}
		if hops > h.m.capacity || h.spent(hops) {
			return 0, false, false
		}
		curNext, _ := h.next[cur].Load()
		ck := h.m.key[cur].Read(h.pid)
		if h.ReadStall != nil {
			h.ReadStall()
		}
		// The fence: prev's link is unchanged since its Load, so cur was
		// linked at this position across both reads and its key/next belong
		// to this chain state (exact under the sound regimes; value-blind
		// under raw, the §1 caveat).
		if !prev.Validate() {
			return 0, false, false
		}
		if !linkMarked(curNext) && ck == k {
			v = h.m.val[cur].Read(h.pid)
			// Key and value are immutable while linked; a second fence on
			// prev proves cur stayed linked across the value read, so the
			// (key, value) pair is a consistent snapshot.
			if !prev.Validate() {
				return 0, false, false
			}
			return v, true, true
		}
		// Advance: cur's next handle is armed by its Load above.
		prev, prevW = h.next[cur], curNext
	}
}

// Put binds k to v.  It returns false when the node pool is exhausted (or a
// MaxSpin budget ran out) — a fresh node is needed even to overwrite, since
// keys and values are immutable per node.
func (h *Handle) Put(k, v Word) bool {
	if h.m.grow != nil {
		return h.putG(k, v)
	}
	idx := h.pool.Alloc()
	if idx == 0 {
		h.endOp(true)
		return false
	}
	h.m.key[idx].Write(h.pid, k)
	h.m.val[idx].Write(h.pid, v)
	b := h.m.bucket(k)
	spins := 0
	for {
		if h.spent(spins) {
			h.retire(idx) // never linked: hand the node straight back
			h.flushRetires()
			return false
		}
		spins++
		headW, _ := h.head[b].Load()
		// Reset the recycled node's link; only we touch an unlinked node.
		h.next[idx].Store(headW)
		if h.head[b].Commit(packLink(idx, false)) {
			break // linearized: the new binding shadows any older one
		}
	}
	// Kill older duplicates: every live k-node behind the first live match
	// (which may be ours, or an even newer Put's) is marked and unlinked, so
	// the steady state is one live node per key and the pool cannot leak.
	h.sweep(b, k, 1, &spins)
	h.endOp(false)
	return true
}

// Delete removes k's binding.  It reports whether any binding was removed.
func (h *Handle) Delete(k Word) bool {
	if h.m.grow != nil {
		return h.delG(k)
	}
	spins := 0
	deleted := h.sweep(h.m.bucket(k), k, 0, &spins)
	h.endOp(!deleted)
	return deleted
}

// sweep marks and unlinks every live k-node past the first `keep` live
// matches, restarting from the bucket head after each kill.  It reports
// whether it killed at least one node.
//
// Kill order matters: the first live match is the visible binding, and an
// older live duplicate behind it is shadowed — readers take the first match.
// Marking the binding while such a duplicate survives would promote the
// duplicate to first match, resurrecting its stale value for the window
// until the sweep reaches it.  So a keep=0 sweep first runs itself at
// keep=1, killing every shadowed duplicate (those deaths are invisible:
// the binding still shadows the position), and only then touches the
// binding.  Inserts happen only at the bucket head, so no new duplicate
// can appear *behind* the binding after that pass — the deep side of the
// chain only ever shrinks.
func (h *Handle) sweep(b int, k Word, keep int, spins *int) bool {
	killed := false
	for {
		if keep == 0 && h.sweep(b, k, 1, spins) {
			killed = true // shadowed duplicates died first; re-probe
		}
		prev, cur, curNext, ok := h.seek(b, k, keep, spins)
		if !ok || cur == 0 {
			return killed
		}
		// Logical delete: set the mark bit on cur's own next pointer.  The
		// commit is armed by seek's Load, so it fails if the link moved —
		// and the mark freezes the link, which is what makes the following
		// unlink safe against concurrent unlinks of the successor.
		if !h.next[cur].Commit(curNext | 1) {
			continue
		}
		killed = true
		// Physical unlink.  On failure the node stays marked and any later
		// traversal helps; on success the node is exclusively ours.
		if prev.Commit(curNext &^ 1) {
			h.retire(cur)
		}
	}
}

// DeleteBegin performs the vulnerable first half of a delete — seek the
// first live k-node and logically delete it (mark its next pointer) — and
// stops right before the physical unlink of the predecessor link, exposing
// the ABA window for the deterministic corruption experiments.  It returns
// the marked node and its successor, or found=false if k was absent.
//
// Under a reclaimer the window is fenced exactly like a stalled stack pop:
// the marked node stays published in this process's protection slot through
// the stall, so it cannot re-enter the allocator — and therefore cannot be
// recycled back under the predecessor link — until the commit clears it.
func (h *Handle) DeleteBegin(k Word) (cur, succ int, found bool) {
	if h.m.grow != nil {
		return h.deleteBeginG(k)
	}
	spins := 0
	for {
		prev, c, curNext, ok := h.seek(h.m.bucket(k), k, 0, &spins)
		if !ok || c == 0 {
			h.pendingPrev, h.pendingCur, h.pendingSucc = nil, 0, 0
			h.endOp(true)
			return 0, 0, false
		}
		if !h.next[c].Commit(curNext | 1) {
			continue
		}
		h.pendingPrev, h.pendingCur, h.pendingSucc = prev, c, curNext&^1
		h.ring.Record(trace.KindOpBegin, "delete", uint64(c), uint64(linkIdx(curNext)))
		return c, linkIdx(curNext), true
	}
}

// DeleteCommit performs the second half of the delete begun by DeleteBegin:
// the conditional unlink of the predecessor link.  Under ProtectionRaw a
// stale commit can succeed after a remove–recycle–reinsert cycle restored
// the link word — swinging the bucket onto a freed node; the other regimes
// reject it.  Each DeleteBegin arms at most one DeleteCommit.  Either way
// the node was already logically deleted, so on failure the caller leaves
// the unlink to the helping traversals.
func (h *Handle) DeleteCommit() bool {
	if h.pendingPrev == nil {
		return false
	}
	prev, cur, succ := h.pendingPrev, h.pendingCur, h.pendingSucc
	h.pendingPrev, h.pendingCur, h.pendingSucc = nil, 0, 0
	if !prev.Commit(succ) {
		h.ring.Record(trace.KindOpCommit, "delete", 0, uint64(cur))
		h.endOp(false)
		return false
	}
	h.ring.Record(trace.KindOpCommit, "delete", 1, uint64(cur))
	h.retire(cur)
	h.endOp(false)
	return true
}

// MapAudit is a quiescent-state structural check.
type MapAudit struct {
	// Live is the number of unmarked nodes reachable from a bucket head.
	Live int
	// Marked is the number of logically deleted nodes still chained.
	Marked int
	// InFree is the number of nodes in the allocator's free set (limbo
	// included).
	InFree int
	// Doubled lists nodes that are both reachable and free, or reachable
	// twice — the smoking gun of an ABA corruption.
	Doubled []int
	// Lost is the number of nodes neither reachable nor free (leaked).
	Lost int
	// Cycle reports whether some bucket chain contains a cycle.
	Cycle bool
	// ReadRetries is the number of torn wait-free read attempts that
	// restarted (each is a write the seqlock fence caught mid-read).
	ReadRetries int64
	// ReadFallbacks is the number of Gets that exhausted the fast path's
	// retry budget and fell back to the guarded traversal.
	ReadFallbacks int64

	// Growth-mode fields (zero for a fixed-capacity map).
	//
	// Dummies is the number of split-order dummy nodes on the global list.
	Dummies int
	// Disordered reports a split-order violation: some node's sort key is
	// below its predecessor's — structural damage only an ABA (or a resize
	// bug) can cause.
	Disordered bool
	// BadShortcuts counts initialized bucket shortcuts that don't land on
	// their own, list-linked dummy.
	BadShortcuts int
	// Splits counts directory doublings; SegmentAppends counts node-space
	// extensions; ResizeRetries counts lost resize CAS races.
	Splits, SegmentAppends, ResizeRetries int64
}

// Corrupt reports whether the audit found structural damage.
func (a MapAudit) Corrupt() bool {
	return len(a.Doubled) > 0 || a.Lost > 0 || a.Cycle || a.Disordered || a.BadShortcuts > 0
}

// String renders the audit result.
func (a MapAudit) String() string {
	s := fmt.Sprintf("live=%d marked=%d inFree=%d doubled=%v lost=%d cycle=%v",
		a.Live, a.Marked, a.InFree, a.Doubled, a.Lost, a.Cycle)
	if a.ReadRetries > 0 || a.ReadFallbacks > 0 {
		s += fmt.Sprintf(" readRetries=%d readFallbacks=%d", a.ReadRetries, a.ReadFallbacks)
	}
	if a.Dummies > 0 || a.Splits > 0 || a.SegmentAppends > 0 {
		s += fmt.Sprintf(" dummies=%d disordered=%v badShortcuts=%d splits=%d appends=%d resizeRetries=%d",
			a.Dummies, a.Disordered, a.BadShortcuts, a.Splits, a.SegmentAppends, a.ResizeRetries)
	}
	return s
}

// Audit walks every bucket chain and the free set.  Call only at quiescence
// (no handle mid-operation); it reads with the observer pid, taking no
// scheduled steps under the simulator.
func (m *Map) Audit() MapAudit {
	if m.grow != nil {
		return m.auditG()
	}
	var a MapAudit
	seen := make(map[int]int, m.capacity)
	for b := range m.head {
		cur := linkIdx(m.head[b].Peek(-1))
		for hops := 0; cur != 0; hops++ {
			if hops > m.capacity {
				a.Cycle = true
				break
			}
			seen[cur]++
			w := m.next[cur].Peek(-1)
			if linkMarked(w) {
				a.Marked++
			} else {
				a.Live++
			}
			cur = linkIdx(w)
		}
	}
	for _, idx := range m.pool.Snapshot() {
		seen[idx]++
		a.InFree++
	}
	for idx, count := range seen {
		if count > 1 {
			a.Doubled = append(a.Doubled, idx)
		}
	}
	a.Lost = m.capacity - len(seen)
	a.ReadRetries = m.readRetries.Load()
	a.ReadFallbacks = m.readFallbacks.Load()
	return a
}
