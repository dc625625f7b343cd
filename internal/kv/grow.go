package kv

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Growth mode: split-ordered expansion (Shalev–Shachnai recursive split
// ordering) over the map's existing Michael-style marked links, plus
// geometric node-space appends through the apps.Pool seam.
//
// The core inversion: instead of moving nodes between bucket chains when the
// directory doubles (a migration would race every concurrent get/put/delete
// and is not linearizable over this link protocol), ALL nodes live on ONE
// globally sorted list and buckets are mere shortcuts into it.  A node's
// sort key is the bit-reversal of its hash with the lowest bit forced to 1;
// a bucket b's shortcut lands on a *dummy* node whose sort key is the
// bit-reversal of b (lowest bit 0, so a dummy sorts immediately before its
// bucket's data).  Because the low log2(S) hash bits pick the bucket and
// reversal sends them to the top, every key of bucket b sorts into the
// half-open run (rev(b), next dummy), and doubling S from the live-count
// threshold splits each run in place: bucket b+S's new dummy drops into the
// middle of b's run, and not a single data node moves.  Growth is therefore
// wait-free for readers — a resize changes only (a) the directory size word,
// (b) lazily initialized shortcut words, and (c) the node-capacity snapshot.
//
// Every mutable word of the protocol is a guard.Guard load/commit (shortcut
// publication, dummy insertion, the data insert at sorted position, mark and
// unlink), so the split path inherits the regime ladder: raw is provably
// corruptible mid-resize (MapGrowABAScenario), tagged/llsc/detector reject
// the stale commit, and hp/epoch prevent the recycle leg outright.
//
// Node-space growth is the slab story one level up: registers and guards
// live in shmem.Spines, so a geometric segment append extends index
// addressing without relocating anything; the pool's Grow releases the new
// indices.  The publication order (field spines, then the capacity snapshot,
// then the pool) means an allocator can only ever hold an index whose
// registers are built, and the wait-free read path re-reads the snapshot for
// its hop bound instead of trusting a fixed field.

const (
	// growThreshold is the average live data nodes per bucket that triggers
	// a directory doubling.
	growThreshold = 6
	// growCheckEvery spaces a handle's threshold checks (summing the striped
	// live counter on every put would reintroduce the shared-line traffic
	// the stripes remove).
	growCheckEvery = 32
)

// growth is the resize state of a map built apps.WithGrowth.
type growth struct {
	maxCapacity int
	maxBuckets  int
	maker       guard.Maker
	factory     shmem.Factory

	// size is the bucket-directory size S (a power of two, monotone
	// doubling — a pure CAS is honest here because the word only ever moves
	// forward, so no ABA is possible on it).  capW is the published
	// node-capacity snapshot; indices 1..capW have built registers.
	size shmem.WritableCAS
	capW shmem.WritableCAS

	// live approximates the live data-node count (inserts minus logical
	// deletes; dummies don't count) — the doubling trigger.
	live *shmem.StripedCounter

	mu sync.Mutex // serializes node-space appends (growNodes)

	splits  atomic.Int64 // directory doublings
	appends atomic.Int64 // node-space segment appends
	retries atomic.Int64 // lost resize CAS races

	key  *shmem.Spine[shmem.Register] // key[i]; immutable while linked
	val  *shmem.Spine[shmem.Register] // val[i]; immutable while linked
	sort *shmem.Spine[shmem.Register] // split-order key of node i
	next *shmem.Spine[guard.Guard]    // packed (succ<<1 | mark)
	head *shmem.Spine[guard.Guard]    // bucket shortcuts; 0 = uninitialized
}

func (g *growth) capacityNow(pid int) int { return int(g.capW.Read(pid)) }

// hash64 is the murmur3 finalizer — the same mix the fixed-mode bucket
// function uses, unmasked so the bit-reversal has full entropy to sort on.
func hash64(k Word) Word {
	h := k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// sortKeyData is a data node's position on the global list: reversed hash
// with the low bit forced to 1, so data always sorts strictly after the
// dummy of its bucket (whose reversed value has low bit 0).
func sortKeyData(k Word) Word { return bits.Reverse64(uint64(hash64(k))) | 1 }

// sortKeyDummy is bucket b's dummy position: the bit-reversal of b.
func sortKeyDummy(b int) Word { return bits.Reverse64(uint64(b)) }

// parentBucket clears b's highest set bit: the bucket whose run bucket b
// split off of, and therefore the list region b's dummy inserts into.
func parentBucket(b int) int { return b &^ (1 << (bits.Len(uint(b)) - 1)) }

// floorPow2 rounds v down to a power of two (minimum 1).
func floorPow2(v int) int {
	if v < 1 {
		return 1
	}
	return 1 << (bits.Len(uint(v)) - 1)
}

// newGrowMap is the growth-mode constructor branch of NewMap: the same
// guard-per-link map, but with every per-node and per-bucket array in a
// Spine and the directory/capacity words published through CAS objects.
func newGrowMap(f shmem.Factory, cfg apps.StructConfig, n, capacity, buckets int) (*Map, error) {
	maxCap := cfg.GrowTo
	if maxCap < capacity {
		return nil, fmt.Errorf("kv: growth ceiling %d below initial capacity %d", maxCap, capacity)
	}
	s0 := nextPow2(buckets)
	maxBuckets := floorPow2(maxCap / growThreshold)
	if maxBuckets < s0 {
		maxBuckets = s0
	}
	idxBits := shmem.BitsFor(maxCap + 1) // sized for the ceiling up front
	linkBits := idxBits + 1              // the mark bit rides beside the index
	g := &growth{
		maxCapacity: maxCap,
		maxBuckets:  maxBuckets,
		maker:       cfg.Maker,
		factory:     f,
		live:        shmem.NewStripedCounter(),
	}
	var err error
	if g.key, err = shmem.NewSpine(capacity+1, func(i int) (shmem.Register, error) {
		if i == 0 {
			return nil, nil
		}
		return f.NewRegister(fmt.Sprintf("mkey[%d]", i), 0), nil
	}); err != nil {
		return nil, err
	}
	if g.val, err = shmem.NewSpine(capacity+1, func(i int) (shmem.Register, error) {
		if i == 0 {
			return nil, nil
		}
		return f.NewRegister(fmt.Sprintf("mval[%d]", i), 0), nil
	}); err != nil {
		return nil, err
	}
	if g.sort, err = shmem.NewSpine(capacity+1, func(i int) (shmem.Register, error) {
		if i == 0 {
			return nil, nil
		}
		return f.NewRegister(fmt.Sprintf("msort[%d]", i), 0), nil
	}); err != nil {
		return nil, err
	}
	if g.next, err = shmem.NewSpine(capacity+1, func(i int) (guard.Guard, error) {
		if i == 0 {
			return nil, nil
		}
		return cfg.Maker(fmt.Sprintf("mnext[%d]", i), linkBits, 0)
	}); err != nil {
		return nil, fmt.Errorf("kv: map next guard: %w", err)
	}
	if g.head, err = shmem.NewSpine(s0, func(b int) (guard.Guard, error) {
		return cfg.Maker(fmt.Sprintf("mhead[%d]", b), linkBits, 0)
	}); err != nil {
		return nil, fmt.Errorf("kv: map head guard: %w", err)
	}
	if !g.head.Get(0).Conditional() {
		return nil, fmt.Errorf("kv: map needs conditional guards; %s guard is detection-only", g.head.Get(0).Regime())
	}
	g.size = f.NewCAS("mgrow.size", Word(s0))
	g.capW = f.NewCAS("mgrow.cap", Word(capacity))
	m := &Map{
		n:        n,
		capacity: capacity,
		buckets:  s0,
		grow:     g,

		readRetries:   shmem.NewStripedCounter(),
		readFallbacks: shmem.NewStripedCounter(),
		tr:            cfg.Trace,
	}
	if m.pool, err = apps.NewPool(f, cfg, "map", n, capacity, idxBits); err != nil {
		return nil, err
	}
	// Boot bucket 0: its dummy anchors the global list and is the walk start
	// for every uninitialized bucket, so it exists from construction on.
	// sortKeyDummy(0) == 0 and the registers initialize to 0, so only the
	// shortcut needs publishing.
	ph, err := m.pool.Handle(0)
	if err != nil {
		return nil, err
	}
	d := ph.Alloc()
	if d == 0 {
		return nil, fmt.Errorf("kv: growth boot: pool refused the bucket-0 dummy")
	}
	hh, err := g.head.Get(0).Handle(0)
	if err != nil {
		return nil, err
	}
	hh.Store(packLink(d, false))
	return m, nil
}

// headHandle returns this process's handle on bucket b's shortcut guard,
// creating it on first touch.  Handles are single-goroutine, so the lazy
// table is plain slice growth; the guard itself is already published by the
// directory spine before any size word could have named b.
func (h *Handle) headHandle(b int) guard.Handle {
	if b >= len(h.headG) {
		ng := make([]guard.Handle, h.m.grow.head.Len())
		copy(ng, h.headG)
		h.headG = ng
	}
	if h.headG[b] == nil {
		hh, err := h.m.grow.head.Get(b).Handle(h.pid)
		if err != nil {
			panic(fmt.Sprintf("kv: head[%d] handle for pid %d: %v", b, h.pid, err))
		}
		h.headG[b] = hh
	}
	return h.headG[b]
}

// nextHandle is headHandle for node link guards.
func (h *Handle) nextHandle(idx int) guard.Handle {
	if idx >= len(h.nextG) {
		ng := make([]guard.Handle, h.m.grow.next.Len())
		copy(ng, h.nextG)
		h.nextG = ng
	}
	if h.nextG[idx] == nil {
		nh, err := h.m.grow.next.Get(idx).Handle(h.pid)
		if err != nil {
			panic(fmt.Sprintf("kv: next[%d] handle for pid %d: %v", idx, h.pid, err))
		}
		h.nextG[idx] = nh
	}
	return h.nextG[idx]
}

// bucketG hashes k under the current directory size and returns its bucket
// plus its split-order key.  The size read is a genuine shared-memory step;
// a stale size is harmless — the global list is fully sorted, so a walk from
// an older (coarser) dummy still passes every node of the key's run.
func (h *Handle) bucketG(k Word) (b int, sk Word) {
	hh := hash64(k)
	s := h.m.grow.size.Read(h.pid)
	return int(hh & (s - 1)), bits.Reverse64(uint64(hh)) | 1
}

// walkG is the growth-mode seek: an ordered walk of the global list from the
// nearest initialized ancestor of bucket b, helping unlink marked nodes,
// under the same Load → Protect → Validate → dereference fence as the
// fixed-mode seek (two alternating protection slots, predecessor
// re-validated after every publish).
//
// With insert=false it returns the (skip+1)-th live node whose sort key is
// sk and whose key is k (cur=0 on a miss, with prev armed where the run
// ended).  With insert=true it stops at the first node with sort >= sk and
// returns it as cur (0 at end of list), prev armed immediately before it —
// the sorted insertion point; the caller checks cur's sort for equality when
// it wants to adopt an existing dummy.
func (h *Handle) walkG(b int, sk, k Word, insert bool, skip int, spins *int) (prev guard.Handle, cur int, curNext Word, ok bool) {
	g := h.m.grow
retry:
	for {
		if h.spent(*spins) {
			return nil, 0, 0, false
		}
		*spins++
		// Find the nearest initialized ancestor.  The read never initializes
		// a bucket — only Put does (it allocates anyway) — so walks stay
		// allocation-free; bucket 0 is always initialized.
		sb := b
		prev = h.headHandle(sb)
		prevW, _ := prev.Load()
		for prevW == 0 && sb != 0 {
			sb = parentBucket(sb)
			prev = h.headHandle(sb)
			prevW, _ = prev.Load()
		}
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
			curNext, _ = h.nextHandle(cur).Load()
			csort := g.sort.Get(cur).Read(h.pid)
			var ck Word
			matchable := !insert && csort == sk
			if matchable {
				ck = g.key.Get(cur).Read(h.pid)
			}
			if !h.smr && !prev.Validate() {
				// Without a reclaimer the node could have been unlinked and
				// recycled between the loads; a changed predecessor link is
				// the tell (exact under the sound regimes, value-blind under
				// raw).
				continue retry
			}
			if linkMarked(curNext) {
				// cur is logically deleted: help unlink it, exactly as the
				// fixed-mode seek does.
				if !prev.Commit(curNext &^ 1) {
					continue retry
				}
				h.release(cur, slot)
				prevW, _ = prev.Load() // re-arm prev, continue in place
				continue
			}
			if insert {
				if csort >= sk {
					return prev, cur, curNext, true
				}
			} else {
				if csort > sk {
					return prev, 0, 0, true // walked past the run: miss
				}
				if matchable && ck == k {
					if remaining == 0 {
						return prev, cur, curNext, true
					}
					remaining--
				}
			}
			// Advance: cur becomes the predecessor; its next handle is armed
			// by the Load above, and the slots alternate so it stays covered.
			prev = h.nextHandle(cur)
			prevW = curNext
			slot ^= 1
		}
	}
}

// allocNode allocates with growth: an empty pool triggers a geometric
// segment append and a retry, until the ceiling.  Re-reading the capacity
// snapshot before each attempt is what keeps the exhaustion report honest
// mid-resize — Alloc failing against capacity another process already
// extended must retry, not report a false "exhausted".  A miss with kills
// still sitting in the operation's retire buffer flushes them first and
// retries — those nodes are freeable once handed to the reclaimer, and
// growing (or reporting exhaustion) while holding them would be spurious.
func (h *Handle) allocNode() int {
	for {
		seen := h.m.grow.capacityNow(h.pid)
		if idx := h.pool.Alloc(); idx != 0 {
			return idx
		}
		if len(h.retireBuf) > 0 {
			h.flushRetires()
			continue
		}
		if !h.m.growNodes(seen) {
			return 0
		}
	}
}

// growNodes appends a node-space segment: double (clamped to the ceiling),
// build the new field registers and link guards, publish the capacity
// snapshot, then release the indices through the pool.  The order is the
// whole protocol — a pool can only hand out an index whose spines are built
// and whose capacity snapshot covers it.  `seen` is the capacity the caller
// failed its Alloc against; if the map has already grown past it, the append
// is skipped and the caller just retries.
func (m *Map) growNodes(seen int) bool {
	g := m.grow
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.capacityNow(-1)
	if cur > seen {
		return true // a concurrent append beat us: retry the alloc
	}
	if cur >= g.maxCapacity {
		return false
	}
	newCap := cur * 2
	if newCap > g.maxCapacity {
		newCap = g.maxCapacity
	}
	if _, err := g.key.Grow(newCap+1, func(i int) (shmem.Register, error) {
		return g.factory.NewRegister(fmt.Sprintf("mkey[%d]", i), 0), nil
	}); err != nil {
		return false
	}
	if _, err := g.val.Grow(newCap+1, func(i int) (shmem.Register, error) {
		return g.factory.NewRegister(fmt.Sprintf("mval[%d]", i), 0), nil
	}); err != nil {
		return false
	}
	if _, err := g.sort.Grow(newCap+1, func(i int) (shmem.Register, error) {
		return g.factory.NewRegister(fmt.Sprintf("msort[%d]", i), 0), nil
	}); err != nil {
		return false
	}
	idxBits := shmem.BitsFor(g.maxCapacity + 1)
	if _, err := g.next.Grow(newCap+1, func(i int) (guard.Guard, error) {
		return g.maker(fmt.Sprintf("mnext[%d]", i), idxBits+1, 0)
	}); err != nil {
		return false
	}
	g.capW.Write(-1, Word(newCap))
	if _, err := m.pool.Grow(newCap); err != nil {
		return false
	}
	g.appends.Add(1)
	return true
}

// growBuckets doubles the directory from s: the shortcut spine is extended
// (new guards, word 0 = uninitialized) *before* the size CAS, so any process
// that observes the doubled size finds every slot built.  A lost CAS means a
// concurrent doubling won — counted as a resize retry, and the caller's
// threshold re-check decides whether another doubling is still warranted.
// force lets the in-package scenarios double past maxBuckets (a scenario
// pool is deliberately tiny, which makes the derived bucket ceiling 1); the
// public hook and the traffic path never force.
func (m *Map) growBuckets(pid, s int, force bool) bool {
	g := m.grow
	if s >= g.maxBuckets && !force {
		return false
	}
	idxBits := shmem.BitsFor(g.maxCapacity + 1)
	if _, err := g.head.Grow(2*s, func(b int) (guard.Guard, error) {
		return g.maker(fmt.Sprintf("mhead[%d]", b), idxBits+1, 0)
	}); err != nil {
		return false
	}
	if g.size.CompareAndSwap(pid, Word(s), Word(2*s)) {
		g.splits.Add(1)
		return true
	}
	g.retries.Add(1)
	return false
}

// GrowBuckets forces one directory doubling (test/scenario hook; the traffic
// path doubles off the live-count threshold instead).  It reports whether
// the directory actually doubled.
func (m *Map) GrowBuckets() bool {
	if m.grow == nil {
		return false
	}
	return m.growBuckets(-1, int(m.grow.size.Read(-1)), false)
}

// maybeGrow is Put's amortized threshold check: every growCheckEvery puts,
// sum the striped live counter and double the directory when the average
// chain would exceed growThreshold.
func (h *Handle) maybeGrow() {
	h.growTick++
	if h.growTick < growCheckEvery {
		return
	}
	h.growTick = 0
	g := h.m.grow
	s := int(g.size.Read(h.pid))
	if s >= g.maxBuckets {
		return
	}
	if g.live.Load() <= int64(s*growThreshold) {
		return
	}
	h.m.growBuckets(h.pid, s, false)
}

// ensureBucket makes bucket b's shortcut point at its dummy, initializing
// ancestors recursively (the recursive-split directory).  Dummy creation is
// alloc-then-adopt: each racer allocates its OWN candidate, walks the parent
// run, adopts an existing equal-sort dummy if one is already linked (the
// insert commit serializes racers, so the dummy per sort key is unique), and
// a loser retires its never-linked candidate.  Only Put calls this — reads
// and deletes walk from an initialized ancestor instead, so they never
// allocate.
func (h *Handle) ensureBucket(b int, spins *int) bool {
	if b == 0 {
		return true // booted at construction
	}
	hb := h.headHandle(b)
	if w, _ := hb.Load(); w != 0 {
		return true
	}
	if !h.ensureBucket(parentBucket(b), spins) {
		return false
	}
	sk := sortKeyDummy(b)
	cand := h.allocNode()
	if cand == 0 {
		return false
	}
	g := h.m.grow
	g.sort.Get(cand).Write(h.pid, sk)
	g.key.Get(cand).Write(h.pid, 0)
	g.val.Get(cand).Write(h.pid, 0)
	d := 0
	for {
		if h.spent(*spins) {
			h.retire(cand)
			return false
		}
		prev, cur, _, ok := h.walkG(parentBucket(b), sk, 0, true, 0, spins)
		if !ok {
			h.retire(cand)
			return false
		}
		if cur != 0 && g.sort.Get(cur).Read(h.pid) == sk {
			// A racer's dummy is already on the list: adopt it and hand the
			// never-linked candidate straight back.
			h.retire(cand)
			d = cur
			break
		}
		h.nextHandle(cand).Store(packLink(cur, false))
		if prev.Commit(packLink(cand, false)) {
			d = cand
			break
		}
	}
	// Publish the shortcut.  A racing initializer publishes the same dummy
	// (it adopted ours or we adopted its), so a lost commit changes nothing.
	if w, _ := hb.Load(); w == 0 {
		hb.Commit(packLink(d, false))
	}
	return true
}

// putG is the growth-mode Put: ensure the bucket's dummy, insert the fresh
// node at its sorted position (immediately before the equal-sort run, so the
// newest binding shadows older ones exactly like the fixed-mode
// insert-at-head), then sweep duplicates.
func (h *Handle) putG(k, v Word) bool {
	spins := 0
	b, sk := h.bucketG(k)
	if !h.ensureBucket(b, &spins) {
		h.endOp(true)
		return false
	}
	idx := h.allocNode()
	if idx == 0 {
		h.endOp(true)
		return false
	}
	g := h.m.grow
	g.key.Get(idx).Write(h.pid, k)
	g.val.Get(idx).Write(h.pid, v)
	g.sort.Get(idx).Write(h.pid, sk)
	for {
		if h.spent(spins) {
			h.retire(idx) // never linked: hand the node straight back
			h.flushRetires()
			return false
		}
		prev, cur, _, ok := h.walkG(b, sk, k, true, 0, &spins)
		if !ok {
			h.retire(idx)
			h.flushRetires()
			return false
		}
		// Reset the recycled node's link; only we touch an unlinked node.
		h.nextHandle(idx).Store(packLink(cur, false))
		// Committing prev from packLink(cur) to packLink(idx) proves cur was
		// still prev's successor — the sorted-position insert is the same
		// conditional shape as the unlink, and as ABA-exposed under raw.
		if prev.Commit(packLink(idx, false)) {
			break
		}
	}
	g.live.Add(h.lane, 1)
	h.sweepG(b, k, sk, 1, &spins)
	h.endOp(false)
	h.maybeGrow()
	return true
}

// sweepG marks and unlinks every live k-node past the first `keep` live
// matches — the fixed-mode sweep's kill-order discipline (shadowed
// duplicates die before the binding) on the ordered list.
func (h *Handle) sweepG(b int, k, sk Word, keep int, spins *int) bool {
	killed := false
	for {
		if keep == 0 && h.sweepG(b, k, sk, 1, spins) {
			killed = true // shadowed duplicates died first; re-probe
		}
		prev, cur, curNext, ok := h.walkG(b, sk, k, false, keep, spins)
		if !ok || cur == 0 {
			return killed
		}
		// Logical delete: mark cur's own next pointer (armed by walkG's
		// Load), freezing the link before the unlink.
		if !h.nextHandle(cur).Commit(curNext | 1) {
			continue
		}
		h.m.grow.live.Add(h.lane, -1)
		killed = true
		// Physical unlink; on failure the node stays marked and any later
		// traversal helps.
		if prev.Commit(curNext &^ 1) {
			h.retire(cur)
		}
	}
}

// getG is the growth-mode guarded Get body.
func (h *Handle) getG(b int, sk, k Word) (Word, bool) {
	spins := 0
	for {
		prev, cur, _, ok := h.walkG(b, sk, k, false, 0, &spins)
		if !ok || cur == 0 {
			h.endOp(true)
			return 0, false
		}
		v := h.m.grow.val.Get(cur).Read(h.pid)
		if !h.smr && !prev.Validate() {
			continue // the node moved while we read it: retry
		}
		h.endOp(false)
		return v, true
	}
}

// delG is the growth-mode Delete body.
func (h *Handle) delG(k Word) bool {
	b, sk := h.bucketG(k)
	spins := 0
	deleted := h.sweepG(b, k, sk, 0, &spins)
	h.endOp(!deleted)
	return deleted
}

// deleteBeginG is DeleteBegin on the ordered list: mark the first live
// k-node and stop before the unlink, arming the pending commit for
// DeleteCommit (shared between modes).
func (h *Handle) deleteBeginG(k Word) (cur, succ int, found bool) {
	b, sk := h.bucketG(k)
	spins := 0
	for {
		prev, c, curNext, ok := h.walkG(b, sk, k, false, 0, &spins)
		if !ok || c == 0 {
			h.pendingPrev, h.pendingCur, h.pendingSucc = nil, 0, 0
			h.endOp(true)
			return 0, 0, false
		}
		if !h.nextHandle(c).Commit(curNext | 1) {
			continue
		}
		h.m.grow.live.Add(h.lane, -1)
		h.pendingPrev, h.pendingCur, h.pendingSucc = prev, c, curNext&^1
		h.ring.Record(trace.KindOpBegin, "delete", uint64(c), uint64(linkIdx(curNext)))
		return c, linkIdx(curNext), true
	}
}

// getGrow is the growth-mode Get entry: wait-free fast path first, guarded
// ordered walk on sustained tearing.
func (h *Handle) getGrow(k Word) (Word, bool) {
	b, sk := h.bucketG(k)
	if h.fastOK {
		for attempt := 0; attempt < fastGetRetries; attempt++ {
			if v, ok, clean := h.tryGetFastG(b, sk, k); clean {
				return v, ok
			}
			h.m.readRetries.Add(h.lane, 1) // one bump per torn attempt
		}
		h.m.readFallbacks.Add(h.lane, 1)
	}
	return h.getG(b, sk, k)
}

// tryGetFastG is the wait-free seqlock read on the ordered list: the
// fixed-mode tryGetFast protocol, with the run's sort keys steering the walk
// and — the growth-snapshot rule — the hop bound re-read from the published
// capacity instead of a fixed field, so a read racing a segment append never
// tears spuriously against a stale bound.
func (h *Handle) tryGetFastG(b int, sk, k Word) (v Word, ok, clean bool) {
	g := h.m.grow
	// Nearest initialized ancestor; the read path never initializes.
	sb := b
	prev := h.headHandle(sb)
	prevW, _ := prev.Load()
	for prevW == 0 && sb != 0 {
		sb = parentBucket(sb)
		prev = h.headHandle(sb)
		prevW, _ = prev.Load()
	}
	bound := g.capacityNow(h.pid) + 1
	for hops := 0; ; hops++ {
		cur := linkIdx(prevW)
		if cur == 0 {
			// Miss: accept only if the final link is still current.
			if !prev.Validate() {
				return 0, false, false
			}
			return 0, false, true
		}
		if hops > bound || h.spent(hops) {
			return 0, false, false
		}
		curNext, _ := h.nextHandle(cur).Load()
		csort := g.sort.Get(cur).Read(h.pid)
		if h.ReadStall != nil {
			h.ReadStall()
		}
		// The fence: prev's link unchanged since its Load, so cur was linked
		// here across both reads (exact under the sound regimes; value-blind
		// under raw, the §1 caveat).
		if !prev.Validate() {
			return 0, false, false
		}
		if linkMarked(curNext) || csort < sk {
			prev, prevW = h.nextHandle(cur), curNext
			continue
		}
		if csort > sk {
			return 0, false, true // walked past the run: a validated miss
		}
		ck := g.key.Get(cur).Read(h.pid)
		if !prev.Validate() {
			return 0, false, false
		}
		if ck != k {
			prev, prevW = h.nextHandle(cur), curNext
			continue
		}
		v = g.val.Get(cur).Read(h.pid)
		// Key and value are immutable while linked; the final fence proves
		// cur stayed linked across the value read.
		if !prev.Validate() {
			return 0, false, false
		}
		return v, true, true
	}
}

// auditG is the growth-mode audit: one walk of the global list from bucket
// 0's dummy (per-bucket walks would double-count through the shortcuts),
// verifying split ordering, then the shortcut directory, then the free set.
func (m *Map) auditG() MapAudit {
	g := m.grow
	var a MapAudit
	capNow := g.capacityNow(-1)
	s := int(g.size.Read(-1))
	seen := make(map[int]int, capNow)
	cur := linkIdx(g.head.Get(0).Peek(-1))
	last := Word(0)
	for hops := 0; cur != 0; hops++ {
		if hops > capNow {
			a.Cycle = true
			break
		}
		seen[cur]++
		w := g.next.Get(cur).Peek(-1)
		cs := g.sort.Get(cur).Read(-1)
		if cs < last {
			a.Disordered = true
		}
		last = cs
		switch {
		case cs&1 == 0:
			a.Dummies++
		case linkMarked(w):
			a.Marked++
		default:
			a.Live++
		}
		cur = linkIdx(w)
	}
	for b := 0; b < s; b++ {
		w := g.head.Get(b).Peek(-1)
		if w == 0 {
			continue
		}
		d := linkIdx(w)
		if d < 1 || d > capNow || g.sort.Get(d).Read(-1) != sortKeyDummy(b) || seen[d] != 1 {
			a.BadShortcuts++
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
	a.Lost = capNow - len(seen)
	a.Splits = g.splits.Load()
	a.SegmentAppends = g.appends.Load()
	a.ResizeRetries = g.retries.Load()
	a.ReadRetries = m.readRetries.Load()
	a.ReadFallbacks = m.readFallbacks.Load()
	return a
}
