// Package kv is the keyed application workload the traffic layer drives: a
// lock-free hash map over the same Guard and reclamation substrate as the
// stack and queue of internal/apps.
//
// The map is one Shalev–Shachnai split-ordered list.  Every node lives on a
// single list sorted by the bit-reversal of its key's hash, and bucket b is
// the run that starts at b's *dummy*, whose sort key is the bit-reversal of
// b.  The low hash bits pick the bucket and the reversal sends them to the
// top, so every key of bucket b sorts between dummy b and the next dummy,
// and doubling the directory from S to 2S splits each run in place: dummy
// b+S drops into the middle of b's run and not a single data node moves.
//
// A dummy is not a pool node.  Dummy b is list index maxCap+1+b, its sort
// key is computed from b, and its one shared word, its next link, *is*
// bucket b's directory guard.  A lookup therefore starts at the bucket's
// guard and walks exactly the nodes of its run — the hops a chained bucket
// takes — and stops at the next dummy without touching it.  A map that
// cannot grow is the same list with its B dummies linked at construction.
//
// Every mutable link rides a guard.Guard: the dummies' links and each node's
// next pointer.  The list protocol is the Michael-style marked-link scheme
// adapted to index-based nodes:
//
//   - a link word packs (successor index << 1 | mark); the mark bit on a
//     node's next pointer is the node's logical-delete flag, set by a
//     conditional commit so the link freezes before the node is unlinked;
//   - a Put links a fresh node immediately before the first live node of its
//     key (or of any later sort key), so the newest binding shadows every
//     older one, and then kills the binding it shadowed through the links
//     its walk left armed; a node's key and value are immutable from link
//     to unlink — reads never race updates;
//   - each write walks its run once in the common case: since no Put links
//     behind a live node of its key, a live duplicate sits behind the
//     binding only while a Put is between its link and its kill, and only
//     among nodes of its key, so a Delete or Put walks the run again only
//     when the node it kills has a node of the same key behind it (sweep);
//     a write ends by re-loading the links it committed through, so it
//     leaves no handle dirty for the next Get;
//   - traversals help: a walker that finds a marked node unlinks it
//     (conditionally, against the predecessor link it has loaded and, under
//     a reclaimer, protected) and releases it to the pool, and restarts from
//     the bucket if that predecessor was marked meanwhile.
//
// The ABA lives exactly where the paper says it lives: between loading a
// predecessor link and committing past it, the successor node can be
// deleted, recycled through the allocator, and re-linked, so a raw commit
// swings a bucket onto a free node (MapABAScenario) or links a new dummy
// ahead of a key that sorts before it (MapGrowABAScenario).  The tagged,
// LL/SC, and detector regimes reject the stale commit, and the hp/epoch
// reclaimers prevent the recycle leg outright — the same ladder the stack
// and queue walk, on the keyed workload a production cache serves.
//
// Growth (apps.WithGrowth) has two halves.  The directory doubles eagerly:
// the Put whose threshold check finds more than growThreshold live nodes per
// bucket links all S new dummies into their parents' runs and only then
// publishes size 2S, under a mutex taken with TryLock that no other
// operation ever waits on.  The node space grows by geometric segment
// appends through the apps.Pool seam: nodes live in a shmem.Spine, so an
// append extends index addressing without relocating anything, and the
// publication order (node spine, then the capacity word, then the pool)
// means an allocator can only hold an index whose node is built.
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

// Word is the key and value type.
type Word = shmem.Word

// Protection re-exports the apps regime selector.
type Protection = apps.Protection

const (
	// growThreshold is the average live data nodes per bucket that triggers
	// a directory doubling.
	growThreshold = 6
	// growCheckEvery spaces a handle's threshold checks (summing the striped
	// live counter on every put would reintroduce the shared-line traffic
	// the stripes remove).
	growCheckEvery = 32
)

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

// hash64 is the murmur3 finalizer: its low bits pick the bucket, and its
// bit-reversal orders the list.
func hash64(k Word) Word {
	h := k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Sort keys.  The list is ordered by bit-reversed value, but a sort key is
// kept unreversed and compared with after: reversal sends the lowest bit
// where two keys differ to the top, so no walk ever reverses a word.  A data
// node's sort key is its key's hash with the top bit set — reversed, the
// low bit — so it sorts strictly after its bucket's dummy, whose sort key
// is the bucket number.

// sortKeyData is the sort key of a data node holding k.
func sortKeyData(k Word) Word { return hash64(k) | 1<<63 }

// sortKeyDummy is dummy b's sort key.
func sortKeyDummy(b int) Word { return Word(b) }

// after reports whether sort key a comes after sort key b on the list: the
// lowest bit where they differ is set in a.
func after(a, b Word) bool {
	d := a ^ b
	return a&d&-d != 0
}

// parentBucket clears b's highest set bit: the bucket whose run bucket b
// split off of, and therefore the run b's dummy is linked into.
func parentBucket(b int) int { return b &^ (1 << (bits.Len(uint(b)) - 1)) }

// nextDummy returns the bucket whose dummy follows dummy b's on the list of
// a directory of s buckets, or -1 when dummy b is the last.
func nextDummy(b, s int) int {
	step := uint64(1) << (64 - bits.Len(uint(s-1))) // one directory slot in sort-key space
	r := bits.Reverse64(uint64(b)) + step
	if r == 0 || step == 0 {
		return -1
	}
	return int(bits.Reverse64(r))
}

// nextPow2 rounds v up to the next power of two.
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// floorPow2 rounds v down to a power of two (minimum 1).
func floorPow2(v int) int {
	if v < 1 {
		return 1
	}
	return 1 << (bits.Len(uint(v)) - 1)
}

// geometry resolves a map's index space: the node ceiling, the initial
// directory size, and the largest directory the map may split to.  A map
// without a growth ceiling never splits.
func geometry(capacity, buckets, ceiling int) (maxCap, s0, maxBuckets int) {
	maxCap, s0 = capacity, nextPow2(buckets)
	maxBuckets = s0
	if ceiling > 0 {
		maxCap = ceiling
		maxBuckets = max(floorPow2(ceiling/growThreshold), s0)
	}
	return maxCap, s0, maxBuckets
}

// LinkBits returns the width of a map's link words for the given node
// capacity, bucket count and growth ceiling (0 = none): one mark bit plus an
// index that names every node up to the ceiling and every dummy of the
// largest directory the map can split to.  A tagged guard needs this many
// value bits beside its tag.
func LinkBits(capacity, buckets, ceiling int) uint {
	maxCap, _, maxBuckets := geometry(capacity, buckets, ceiling)
	return shmem.BitsFor(maxCap+maxBuckets+1) + 1
}

// node is a pool node's shared state.
type node struct {
	key, val shmem.Register // immutable while linked
	next     guard.Guard    // packed (succ<<1 | mark)
}

// Map is a lock-free hash map over a pool of index-based nodes, shared by n
// processes.  Every bucket's dummy link and every node's next pointer is a
// Guard, so the map runs under every Protection regime, over any registered
// guard implementation, on any substrate — and its node recycling routes
// through the allocator seam, so any reclaim scheme can sit underneath.
type Map struct {
	n          int
	capacity   int  // initial node count; the constructed segment is 0..capacity
	maxCap     int  // node ceiling: data nodes are 1..maxCap, dummy b is maxCap+1+b
	maxBuckets int  // largest directory the map may split to
	maxHops    int  // the longest a clean walk can be: every node and dummy
	mask       Word // directory mask of a map that cannot split
	linkBits   uint
	growing    bool // built apps.WithGrowth

	nodes0 []node                    // nodes 0..capacity: the spine's first segment, never moved
	nodes  *shmem.Spine[node]        // every node, grown segments included
	heads  *shmem.Spine[guard.Guard] // heads[b] is dummy b's next link: bucket b's guard
	maker  guard.Maker               // builds the guards of grown nodes and buckets
	fac    shmem.Factory             // builds the registers of grown nodes
	pool   apps.Pool

	// Read-path counters (striped: retries happen exactly under the write
	// contention a shared counter would amplify).  The clean fast path bumps
	// nothing — a per-Get counter would reintroduce the shared write the
	// path exists to remove.
	readRetries   *shmem.StripedCounter // torn fast-path attempts restarted
	readFallbacks *shmem.StripedCounter // Gets that fell back to the guarded path

	// Directory growth, nil when the directory cannot split.  size is the
	// directory size S; only the splitter holding split writes it, and it
	// only doubles.  live approximates the live data-node count (inserts
	// minus logical deletes), the doubling trigger.
	size  shmem.WritableCAS
	live  *shmem.StripedCounter
	split sync.Mutex

	// Node-space growth, nil when the capacity is the ceiling.  capW is the
	// published node capacity: nodes 1..capW are built.
	capW     shmem.WritableCAS
	appendMu sync.Mutex // serializes segment appends

	splits  atomic.Int64 // directory doublings
	appends atomic.Int64 // node-space segment appends
	retries atomic.Int64 // threshold checks that found a split in progress

	// tr is the flight recorder of a map built apps.WithTrace; nil means no
	// tracing anywhere on the hot path.
	tr *trace.Recorder
}

// NewMap builds a map for n processes with the given node capacity and
// bucket count (rounded up to a power of two; pass 1 to force every key
// into one run, as the deterministic scenarios do).  tagBits is only used by
// the Tagged regime; both prot and tagBits are ignored when apps.WithMaker
// supplies the guards.  With apps.WithGrowth the capacity and bucket count
// are the initial ones.
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
	cfg := apps.ResolveStructOptions(f, n, prot, tagBits, opts)
	if cfg.GrowTo > 0 && cfg.GrowTo < capacity {
		return nil, fmt.Errorf("kv: growth ceiling %d below initial capacity %d", cfg.GrowTo, capacity)
	}
	maxCap, s0, maxBuckets := geometry(capacity, buckets, cfg.GrowTo)
	m := &Map{
		n:          n,
		capacity:   capacity,
		maxCap:     maxCap,
		maxBuckets: maxBuckets,
		maxHops:    maxCap + maxBuckets,
		mask:       Word(s0 - 1),
		linkBits:   LinkBits(capacity, buckets, cfg.GrowTo),
		growing:    cfg.GrowTo > 0,
		maker:      cfg.Maker,
		fac:        f,

		readRetries:   shmem.NewStripedCounter(),
		readFallbacks: shmem.NewStripedCounter(),
		tr:            cfg.Trace,
	}
	var err error
	if m.nodes, err = shmem.NewSpine(capacity+1, maxCap+1, m.buildNode); err != nil {
		return nil, err
	}
	m.nodes0 = m.nodes.First()
	// Link the initial directory: dummy b's link names the dummy that sorts
	// next, so all s0 runs are on the list before any operation.
	if m.heads, err = shmem.NewSpine(s0, maxBuckets, func(b int) (guard.Guard, error) {
		succ := Word(0)
		if nb := nextDummy(b, s0); nb >= 0 {
			succ = packLink(m.dummy(nb), false)
		}
		return m.buildHead(b, succ)
	}); err != nil {
		return nil, err
	}
	if g := m.heads.Get(0); !g.Conditional() {
		return nil, fmt.Errorf("kv: map needs conditional guards; %s guard is detection-only", g.Regime())
	}
	if maxBuckets > s0 {
		m.size = f.NewCAS("mgrow.size", Word(s0))
		m.live = shmem.NewStripedCounter()
	}
	if maxCap > capacity {
		m.capW = f.NewCAS("mgrow.cap", Word(capacity))
	}
	if m.pool, err = apps.NewPool(f, cfg, "map", n, capacity, maxCap, shmem.BitsFor(maxCap+1)); err != nil {
		return nil, err
	}
	return m, nil
}

// buildNode builds node i's registers and link guard (node 0 is the null
// index and has none).  Only the guard is ever traced, so only its label
// carries the index, and only on a traced map.
func (m *Map) buildNode(i int) (node, error) {
	if i == 0 {
		return node{}, nil
	}
	key := m.fac.NewRegister("mkey", 0)
	val := m.fac.NewRegister("mval", 0)
	next, err := m.maker(m.tr.Label("mnext", i), m.linkBits, 0)
	if err != nil {
		return node{}, fmt.Errorf("kv: map next[%d] guard: %w", i, err)
	}
	return node{key: key, val: val, next: next}, nil
}

// buildHead builds bucket b's guard: dummy b's link, initially succ.
func (m *Map) buildHead(b int, succ Word) (guard.Guard, error) {
	g, err := m.maker(m.tr.Label("mhead", b), m.linkBits, succ)
	if err != nil {
		return nil, fmt.Errorf("kv: map head[%d] guard: %w", b, err)
	}
	return g, nil
}

// dummy returns bucket b's dummy's list index.
func (m *Map) dummy(b int) int { return m.maxCap + 1 + b }

// node returns node i.  The constructed segment is a plain slice; grown
// segments are reached through the spine, out of line.
func (m *Map) node(i int) *node {
	if i < len(m.nodes0) {
		return &m.nodes0[i]
	}
	return m.nodes.At(i)
}

// NumProcs returns n.
func (m *Map) NumProcs() int { return m.n }

// Capacity returns the node-pool capacity — the current one for a map whose
// node space grows.
func (m *Map) Capacity() int {
	if m.capW != nil {
		return int(m.capW.Read(-1))
	}
	return m.capacity
}

// MaxCapacity returns the node-capacity ceiling: the growth ceiling for a
// map built apps.WithGrowth, the fixed capacity otherwise.
func (m *Map) MaxCapacity() int { return m.maxCap }

// Growing reports whether the map was built apps.WithGrowth.
func (m *Map) Growing() bool { return m.growing }

// Buckets returns the current directory size.
func (m *Map) Buckets() int {
	if m.size != nil {
		return int(m.size.Read(-1))
	}
	return int(m.mask) + 1
}

// Protection returns the reference-guard regime.
func (m *Map) Protection() Protection { return m.heads.Get(0).Regime() }

// GuardMetrics returns the aggregated audit counters of every reference
// guard (bucket heads and all next pointers).
func (m *Map) GuardMetrics() guard.Metrics {
	var agg guard.Metrics
	for b := 0; b < m.heads.Len(); b++ {
		agg = agg.Add(m.heads.Get(b).Metrics())
	}
	for i := 1; i < m.nodes.Len(); i++ {
		agg = agg.Add(m.node(i).next.Metrics())
	}
	return agg
}

// FreelistMetrics returns the node pool's guard counters (zero unless the
// map was built apps.WithGuardedPool).
func (m *Map) FreelistMetrics() guard.Metrics { return m.pool.Metrics() }

// PoolStats returns the allocator's exhaustion and reclamation counters.
func (m *Map) PoolStats() apps.PoolStats { return m.pool.Stats() }

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
	return h, nil
}

// Handle is a per-process map endpoint.
type Handle struct {
	m      *Map
	pid    int
	lane   int  // read-counter stripe, shmem.StripeFor(pid)
	fastOK bool // wait-free read fast path is sound for this configuration
	pool   apps.PoolHandle
	smr    bool        // pool defers releases: run the protect/revalidate fence
	ring   *trace.Ring // nil without apps.WithTrace; Record on nil is a no-op

	// This process's handles on the node links and the bucket guards, each
	// made on its first use.  The tables start empty, so a handle that never
	// touches a node allocates none, and grow with the map (handles are
	// single-goroutine, so plain slice growth suffices).
	links []guard.Handle
	heads []guard.Handle

	growTick int // Puts since this handle's last threshold check

	// MaxSpin bounds the traversal/retry steps of one operation, and of each
	// dummy link of a split; 0 means unbounded (the lock-free default).  A
	// raw-guarded map that has been ABA-corrupted can acquire a cycle
	// through the list, turning a traversal into a livelock — benchmark and
	// race harnesses set a bound so a corrupted foil fails operations
	// instead of hanging.
	MaxSpin int
	// spunOut records that a MaxSpin budget ran out: the list is livelocked
	// for this handle, and matrix workers stop issuing operations on it.
	spunOut bool

	// retireBuf batches this operation's unlinked nodes (the helped unlinks
	// of a traversal plus the sweep's own kills) into one RetireBatch at the
	// operation boundary — one epoch stamp and one cadence check for the
	// whole kill set instead of one per node.  SMR only: without a reclaimer
	// releases stay immediate, keeping the FIFO recycling order the
	// deterministic corruption scripts depend on.
	retireBuf []int
}

// link returns this process's handle on list index i's next link: node i's,
// or for a dummy its bucket's guard.
func (h *Handle) link(i int) guard.Handle {
	if i < len(h.links) && h.links[i] != nil {
		return h.links[i]
	}
	return h.linkSlow(i)
}

func (h *Handle) linkSlow(i int) guard.Handle {
	if i > h.m.maxCap {
		return h.head(i - h.m.maxCap - 1)
	}
	return h.makeHandle(&h.links, i, h.m.nodes.Len(), h.m.node(i).next)
}

// head returns this process's handle on bucket b's guard.
func (h *Handle) head(b int) guard.Handle {
	if b < len(h.heads) && h.heads[b] != nil {
		return h.heads[b]
	}
	return h.headSlow(b)
}

func (h *Handle) headSlow(b int) guard.Handle {
	return h.makeHandle(&h.heads, b, h.m.heads.Len(), h.m.heads.Get(b))
}

// makeHandle makes this process's handle on g and files it as entry i of
// *tab, first growing the table to n entries if i is past its end.
func (h *Handle) makeHandle(tab *[]guard.Handle, i, n int, g guard.Guard) guard.Handle {
	if i >= len(*tab) {
		*tab = append(*tab, make([]guard.Handle, n-len(*tab))...)
	}
	gh, err := g.Handle(h.pid)
	if err != nil {
		panic(fmt.Sprintf("kv: guard handle for pid %d: %v", h.pid, err)) // Map.Handle checked pid
	}
	(*tab)[i] = gh
	return gh
}

// locate returns k's bucket under the current directory and k's sort key.
// On a map that splits, the size read is a genuine shared-memory step; a
// stale size is harmless — the list is fully sorted, so a walk from an older
// (coarser) dummy still passes every node of the key's run.
func (h *Handle) locate(k Word) (b int, sk Word) {
	hk := hash64(k)
	mask := h.m.mask
	if h.m.size != nil {
		mask = h.m.size.Read(h.pid) - 1
	}
	return int(hk & mask), hk | 1<<63
}

// addLive moves the live count a split's threshold check reads.
func (h *Handle) addLive(d int64) {
	if h.m.live != nil {
		h.m.live.Add(h.lane, d)
	}
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
	if len(h.retireBuf) > 0 {
		h.pool.ReleaseBatch(h.retireBuf)
		h.retireBuf = h.retireBuf[:0]
	}
	if miss {
		h.pool.Drain()
	}
}

// retire hands back a node this process unlinked (or never linked).
// Without a reclaimer it is free at once.  Under a reclaimer it joins the
// operation's retire batch: it is unreachable and not yet allocatable (the
// buffer is private), so deferring the retirement to the operation boundary
// only delays reuse, never safety — and the batch is flushed after endOp's
// Clear, so this process's own protections cannot defer it.
func (h *Handle) retire(idx int) {
	if h.smr {
		h.retireBuf = append(h.retireBuf, idx)
		return
	}
	h.pool.Release(idx)
}

// seek walks bucket b's run looking for key k (sort key sk), helping unlink
// every marked node it passes.  It stops at the first live node that is
// either the (skip+1)-th live k-node or sorts after k — or, when sk is a
// dummy's sort key, at that dummy.  On return:
//
//   - prev is the guard handle of the link pointing at cur (a bucket guard
//     or a predecessor's next pointer), armed by its last Load — ready for
//     the caller's insert, mark or unlink commit;
//   - cur is the node seek stopped at (0 at the end of the list);
//   - curNext is cur's next word as loaded (unmarked; 0 for a dummy), which
//     leaves cur's own link armed;
//   - found reports that cur is the node sought;
//   - ok is false when the spin budget ran out.
//
// The traversal follows the Load → Protect → Validate → dereference fence:
// under a reclaimer each visited node is published in one of the two
// protection slots (alternating, so the predecessor stays covered) and the
// predecessor link is re-validated after the publish; without a reclaimer
// the dependent reads are validated after the fact, which the sound regimes
// turn into a restart whenever the list moved underneath — and the raw
// regime can only compare values, which is the §1 vulnerability.  Dummies
// are never marked, freed or recycled, so reaching one needs no fence.
func (h *Handle) seek(b int, k, sk Word, skip int, spins *int) (prev guard.Handle, cur int, curNext Word, found, ok bool) {
	m := h.m
retry:
	for {
		if h.spent(*spins) {
			return nil, 0, 0, false, false
		}
		*spins++
		prev = h.head(b)
		prevW, _ := prev.Load()
		slot, remaining := 0, skip
		for {
			if h.spent(*spins) {
				return nil, 0, 0, false, false
			}
			*spins++
			cur = linkIdx(prevW)
			if cur == 0 {
				return prev, 0, 0, false, true
			}
			if cur > m.maxCap {
				if cs := sortKeyDummy(cur - m.maxCap - 1); cs == sk || after(cs, sk) {
					return prev, cur, 0, cs == sk, true
				}
				// A dummy of a directory newer than this walk's: pass it.
				prev = h.link(cur)
				prevW, _ = prev.Load()
				continue
			}
			if h.smr {
				h.pool.Protect(slot, cur)
				if !prev.Validate() {
					continue retry // cur moved before the protection was visible
				}
			}
			curNext, _ = h.link(cur).Load()
			ck := m.node(cur).key.Read(h.pid)
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
				h.retire(cur)
				// Re-arm prev and continue in place, unless prev's own
				// node was marked meanwhile: a commit through a deleted
				// node's link would clear its mark, and its deleter's
				// unlink would then drop whatever was linked behind it.
				if prevW, _ = prev.Load(); linkMarked(prevW) {
					continue retry
				}
				continue
			}
			if cs := sortKeyData(ck); after(cs, sk) {
				return prev, cur, curNext, false, true
			} else if cs == sk && ck == k {
				if remaining == 0 {
					return prev, cur, curNext, true, true
				}
				remaining--
			}
			// Advance: cur becomes the predecessor; its next handle is
			// already armed by the Load above.  The slots alternate so the
			// new predecessor stays protected while the next node is
			// published into the slot its own predecessor vacated.
			prev = h.link(cur)
			prevW = curNext
			slot ^= 1
		}
	}
}

// Get returns the value bound to k.
//
// The common case is the wait-free seqlock fast path (tryGetFast): an
// unprotected walk whose key/value snapshot is accepted only if the link
// guards still validate — no hazard slot, no epoch pin, no retire drain, no
// allocation, and on a clean read not a single shared write.  After
// fastGetRetries torn attempts Get falls back to the guarded traversal
// (counted in MapAudit.ReadFallbacks), which is lock-free and helps unlink,
// so progress is never worse than before the fast path.
func (h *Handle) Get(k Word) (Word, bool) {
	if h.ring == nil {
		return h.get(k)
	}
	h.ring.Begin()
	v, ok := h.get(k)
	h.ring.End()
	return v, ok
}

func (h *Handle) get(k Word) (Word, bool) {
	b, sk := h.locate(k)
	if h.fastOK {
		for attempt := 0; attempt < fastGetRetries; attempt++ {
			if v, ok, clean := h.tryGetFast(b, k, sk); clean {
				return v, ok
			}
			h.m.readRetries.Add(h.lane, 1) // one bump per torn attempt
		}
		h.m.readFallbacks.Add(h.lane, 1)
	}
	spins := 0
	for {
		prev, cur, _, found, ok := h.seek(b, k, sk, 0, &spins)
		if !ok || !found {
			h.endOp(true)
			return 0, false
		}
		v := h.m.node(cur).val.Read(h.pid)
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

// tryGetFast is one wait-free attempt: walk the run reading links, keys,
// and — on a match — the value, accepting each dependent read only if the
// link it hangs off still validates (the seqlock fence; guard.ReadConsistent
// is this protocol for a single reference, inlined here because the payload
// spans a list).  clean=false reports a torn attempt.
//
// The walk takes no protection slot: nodes are array indices, so a recycled
// node is readable garbage, never a dangling pointer, and the validating
// fence rejects the garbage.  Marked nodes are skipped, not helped — the
// read path must not write.  The hop bound covers the one structural hazard
// validation cannot see mid-walk: a list that acquired a cycle (possible
// only after a raw-regime corruption), which just turns the attempt torn.
func (h *Handle) tryGetFast(b int, k, sk Word) (v Word, ok, clean bool) {
	m := h.m
	prev := h.head(b)
	prevW, _ := prev.Load()
	for hops := 0; ; hops++ {
		cur := linkIdx(prevW)
		if cur == 0 || cur > m.maxCap && after(sortKeyDummy(cur-m.maxCap-1), sk) {
			// Miss at the end of the run: accept only if the final link is
			// still current.
			return 0, false, prev.Validate()
		}
		if hops > m.maxHops || h.spent(hops) {
			return 0, false, false
		}
		if cur > m.maxCap {
			// A dummy of a directory newer than this walk's: pass it.
			prev = h.link(cur)
			prevW, _ = prev.Load()
			continue
		}
		n := m.node(cur)
		curNext, _ := h.link(cur).Load()
		ck := n.key.Read(h.pid)
		hit := ck == k && !linkMarked(curNext)
		if hit {
			v = n.val.Read(h.pid)
		}
		// The fence: prev's link is unchanged since its Load, so cur was
		// linked at this position across every read of it, and its next,
		// key and value belong to this list state — key and value are
		// immutable while linked, so on a hit the pair is a consistent
		// snapshot (exact under the sound regimes; value-blind under raw,
		// the §1 caveat).
		if !prev.Validate() {
			return 0, false, false
		}
		if hit {
			return v, true, true
		}
		if after(sortKeyData(ck), sk) {
			return 0, false, true // walked past k's position: a validated miss
		}
		// Advance: cur's next handle is armed by its Load above.
		prev, prevW = h.link(cur), curNext
	}
}

// Put binds k to v.  It returns false when the node pool is exhausted (or a
// MaxSpin budget ran out) — a fresh node is needed even to overwrite, since
// keys and values are immutable per node.  In the common case it walks k's
// run once: the walk finds the insert position, an overwrite kills the
// binding it shadows through the links the walk left armed, and two closing
// Loads re-arm the links the Put wrote.
func (h *Handle) Put(k, v Word) bool {
	if h.ring == nil {
		return h.put(k, v)
	}
	h.ring.Begin()
	ok := h.put(k, v)
	h.ring.End()
	return ok
}

func (h *Handle) put(k, v Word) bool {
	idx := h.allocNode()
	if idx == 0 {
		h.endOp(true)
		return false
	}
	n := h.m.node(idx)
	n.key.Write(h.pid, k)
	n.val.Write(h.pid, v)
	b, sk := h.locate(k)
	spins := 0
	var (
		prev    guard.Handle
		cur     int
		curNext Word
		found   bool
	)
	for {
		var ok bool
		if prev, cur, curNext, found, ok = h.seek(b, k, sk, 0, &spins); !ok {
			h.retire(idx) // never linked: hand the node straight back
			h.endOp(false)
			return false
		}
		// Reset the recycled node's link; only we touch an unlinked node.
		// When the insert will shadow a binding, re-arm the link before it
		// is published, so the kill below can unlink through it only while
		// it still names cur.
		nl := h.link(idx)
		nl.Store(packLink(cur, false))
		if found {
			nl.Load()
		}
		// Committing prev from cur to idx proves cur was still prev's
		// successor — the insert is the same conditional shape as the
		// unlink, and as ABA-exposed under raw.
		if prev.Commit(packLink(idx, false)) {
			break // linearized: the new binding shadows any older one
		}
	}
	h.addLive(1)
	// The insert shadows cur when cur was the binding: kill it through the
	// armed links.  Only a failed commit, or an older duplicate that an
	// interrupted Put left behind cur, needs the keep=1 sweep's walk; it
	// kills every live k-node behind the first, so the steady state is one
	// live node per key and the pool cannot leak.  The probe runs first,
	// while cur's link still validates.
	if found {
		dup := h.dupBehind(cur, curNext, k)
		if !h.killShadowed(idx, cur, curNext) || dup {
			h.sweep(b, k, sk, 1, &spins)
		}
	}
	// Re-arm the two links this Put wrote.  A handle's own Commit or Store
	// leaves it armed at the word it replaced, so its next Load is dirty (a
	// shared counter bump, and under LL/SC a full LL): paid here, inside the
	// write, rather than by the next Get that walks past.
	prev.Load()
	h.link(idx).Load()
	h.endOp(false)
	h.maybeGrow()
	return true
}

// killShadowed kills cur, the binding Put just linked idx in front of,
// through links already armed: the mark commits against the insert walk's
// load of cur's link, and the unlink against Put's load of idx's own link
// before idx was published.  It reports whether both commits succeeded;
// either fails if its link moved, and Put's sweep then finishes the kill.
func (h *Handle) killShadowed(idx, cur int, curNext Word) bool {
	if !h.link(cur).Commit(curNext | 1) {
		return false
	}
	h.addLive(-1)
	if !h.link(idx).Commit(curNext) {
		return false
	}
	h.retire(cur)
	return true
}

// Delete removes k's binding.  It reports whether any binding was removed.
func (h *Handle) Delete(k Word) bool {
	if h.ring == nil {
		return h.delete(k)
	}
	h.ring.Begin()
	ok := h.delete(k)
	h.ring.End()
	return ok
}

func (h *Handle) delete(k Word) bool {
	b, sk := h.locate(k)
	spins := 0
	deleted := h.sweep(b, k, sk, 0, &spins)
	h.endOp(!deleted)
	return deleted
}

// sweep marks and unlinks the live k-nodes past the first `keep` live
// matches — at keep=0 the binding, at keep=1 the duplicates it shadows —
// and reports whether it killed one.  A keep=0 sweep counts only its own
// mark of the binding, not the duplicates its keep=1 pre-pass killed: those
// remove no binding, and another process may delete the binding they
// exposed before this sweep reaches it, so counting them would let two
// Deletes of one binding both report it.
//
// The invariant it leans on: a Put links its node only immediately in front
// of the first live k-node (or, with none, of the first node that sorts
// after k), so the k-nodes of a run are contiguous, and no Put ever links
// behind a live k-node.  A live k-node whose successor is the list end, a
// dummy or a node of another key therefore has no live duplicate behind it,
// now or later.  dupBehind probes for exactly that, so in the common case a
// sweep is one walk and one kill; it walks the run again only when a k-node
// follows the node it kills.
//
// Kill order matters: the first live match is the visible binding, and an
// older live duplicate behind it is shadowed — readers take the first match.
// Marking the binding while such a duplicate survives would promote the
// duplicate to first match, resurrecting its stale value for the window
// until the sweep reaches it.  So when the probe finds a k-node behind the
// binding (keep=0), a keep=1 sweep first kills every shadowed duplicate
// (those deaths are invisible: the binding still shadows the position), and
// the walk then returns to the binding.  By the invariant no new duplicate
// can appear behind the binding after that pass, so a binding this sweep
// marks has nothing live of its key behind it.
func (h *Handle) sweep(b int, k, sk Word, keep int, spins *int) bool {
	killed := false
	for {
		prev, cur, curNext, found, ok := h.seek(b, k, sk, keep, spins)
		if !ok || !found {
			return killed
		}
		dup := h.dupBehind(cur, curNext, k)
		if dup && keep == 0 {
			h.sweep(b, k, sk, 1, spins) // shadowed duplicates die first; re-probe
			continue
		}
		// Logical delete: set the mark bit on cur's own next pointer.  The
		// commit is armed by seek's Load (a Validate leaves it armed), so it
		// fails if the link moved — and the mark freezes the link, which is
		// what makes the following unlink safe against concurrent unlinks of
		// the successor.
		if !h.link(cur).Commit(curNext | 1) {
			continue
		}
		h.addLive(-1)
		killed = true
		// Physical unlink.  On failure the node stays marked and any later
		// traversal helps; on success the node is exclusively ours, and a
		// Load re-arms prev, as Put's closing Loads do, so the next Get
		// past it loads clean.
		if prev.Commit(curNext &^ 1) {
			h.retire(cur)
			prev.Load()
		}
		if !dup {
			return true
		}
	}
}

// dupBehind reports whether a k-node may follow cur, a live k-node whose
// next word seek loaded as curNext (so cur's link is armed).  The list end
// and a dummy close the run; otherwise it reads the successor's key, which
// is the successor's own only if cur's link still names the successor
// after the read — keys are immutable while linked — so a link that moved
// answers yes.  A marked k-node answers yes too: a live duplicate may sit
// behind it.
func (h *Handle) dupBehind(cur int, curNext, k Word) bool {
	succ := linkIdx(curNext)
	if succ == 0 || succ > h.m.maxCap {
		return false
	}
	return h.m.node(succ).key.Read(h.pid) == k || !h.link(cur).Validate()
}

// allocNode allocates a node, appending a node segment when the pool is
// empty, until the ceiling.  Re-reading the capacity before each attempt is
// what keeps the exhaustion report honest mid-append — Alloc failing against
// capacity another process already extended must retry, not report a false
// "exhausted".
func (h *Handle) allocNode() int {
	for {
		seen := h.m.Capacity()
		if idx := h.pool.Alloc(); idx != 0 {
			return idx
		}
		if !h.m.growNodes(h.pid, seen) {
			return 0
		}
	}
}

// growNodes appends a node segment: double the capacity (clamped to the
// ceiling), build the new nodes, publish the capacity word, then release the
// indices through the pool.  The order is the whole protocol — a pool can
// only hand out an index whose node is built and whose capacity word covers
// it.  `seen` is the capacity the caller failed its Alloc against; if the
// map has already grown past it, the append is skipped and the caller just
// retries.  pid is the growing process.
func (m *Map) growNodes(pid, seen int) bool {
	if m.capW == nil {
		return false
	}
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	cur := m.Capacity()
	if cur > seen {
		return true // a concurrent append beat us: retry the alloc
	}
	if cur >= m.maxCap {
		return false
	}
	newCap := min(cur*2, m.maxCap)
	if _, err := m.nodes.Grow(newCap+1, m.buildNode); err != nil {
		return false
	}
	m.capW.Write(-1, Word(newCap))
	if _, err := m.pool.Grow(pid, newCap); err != nil {
		return false
	}
	m.appends.Add(1)
	return true
}

// maybeGrow is Put's amortized threshold check: every growCheckEvery puts,
// sum the striped live counter and double the directory when the average
// run would exceed growThreshold.
func (h *Handle) maybeGrow() {
	m := h.m
	if m.live == nil {
		return
	}
	h.growTick++
	if h.growTick < growCheckEvery {
		return
	}
	h.growTick = 0
	if s := int(m.size.Read(h.pid)); s < m.maxBuckets && m.live.Load() > int64(s*growThreshold) {
		h.splitFrom(s)
	}
}

// GrowBuckets doubles the directory once, whatever the live count, unless it
// is at its ceiling or another process is splitting it; it reports whether
// the directory doubled.  It is the forced form of Put's threshold split,
// for tests and scripts.
func (h *Handle) GrowBuckets() bool {
	if h.m.size == nil {
		return false
	}
	if h.ring == nil {
		return h.splitFrom(int(h.m.size.Read(h.pid)))
	}
	h.ring.Begin()
	ok := h.splitFrom(int(h.m.size.Read(h.pid)))
	h.ring.End()
	return ok
}

// splitFrom doubles a directory of s buckets: it links dummies s..2s-1 into
// their parents' runs, then publishes size 2s.  No data node moves, and an
// operation that read the old size walks through the new dummies like any
// other node.  The split mutex is only ever taken with TryLock, so no
// operation waits on a split: a threshold check that finds one in progress
// counts a resize retry and carries on.  A split whose spin budget runs out
// leaves its linked dummies on the list, unpublished; the next split skips
// them.
func (h *Handle) splitFrom(s int) bool {
	m := h.m
	if s >= m.maxBuckets {
		return false
	}
	if !m.split.TryLock() {
		m.retries.Add(1)
		return false
	}
	defer m.split.Unlock()
	if int(m.size.Read(h.pid)) != s {
		return false // another split published since the caller read s
	}
	if _, err := m.heads.Grow(2*s, func(b int) (guard.Guard, error) { return m.buildHead(b, 0) }); err != nil {
		return false
	}
	ok := true
	for b := s; b < 2*s && ok; b++ {
		ok = h.linkDummy(b)
	}
	h.endOp(false)
	if !ok {
		return false
	}
	m.size.Write(h.pid, Word(2*s))
	m.splits.Add(1)
	return true
}

// linkDummy links dummy b at its sorted position in its parent bucket's run,
// with a spin budget of its own: a split links S dummies, and one budget for
// all of them would make a large split fail where any operation succeeds.
func (h *Handle) linkDummy(b int) bool {
	d, sk, own := h.m.dummy(b), sortKeyDummy(b), h.head(b)
	spins := 0
	for {
		prev, cur, _, found, ok := h.seek(parentBucket(b), 0, sk, 0, &spins)
		if !ok {
			return false
		}
		if found {
			return true // linked by an earlier split that ran out of budget
		}
		own.Store(packLink(cur, false))
		if prev.Commit(packLink(d, false)) {
			return true
		}
	}
}

// MapAudit is a quiescent-state structural check.
type MapAudit struct {
	// Live is the number of unmarked data nodes on the list.
	Live int
	// Marked is the number of logically deleted nodes still linked.
	Marked int
	// InFree is the number of nodes in the allocator's free set (limbo
	// included).
	InFree int
	// Doubled lists nodes that are both reachable and free, or reachable
	// twice — the smoking gun of an ABA corruption.
	Doubled []int
	// Lost is the number of nodes neither reachable nor free (leaked).
	Lost int
	// Cycle reports whether the list contains a cycle.
	Cycle bool
	// ReadRetries is the number of torn wait-free read attempts that
	// restarted (each is a write the seqlock fence caught mid-read).
	ReadRetries int64
	// ReadFallbacks is the number of Gets that exhausted the fast path's
	// retry budget and fell back to the guarded traversal.
	ReadFallbacks int64

	// Dummies is the number of bucket dummies on the list.
	Dummies int
	// Disordered reports a split-order violation: some node's sort key is
	// below its predecessor's — structural damage only an ABA (or a resize
	// bug) can cause.
	Disordered bool
	// BadShortcuts counts directory buckets whose dummy the list does not
	// reach exactly once.
	BadShortcuts int
	// Splits counts directory doublings; SegmentAppends counts node-space
	// extensions; ResizeRetries counts threshold checks that found a split
	// already in progress.
	Splits, SegmentAppends, ResizeRetries int64
}

// Corrupt reports whether the audit found structural damage.
func (a MapAudit) Corrupt() bool {
	return len(a.Doubled) > 0 || a.Lost > 0 || a.Cycle || a.Disordered || a.BadShortcuts > 0
}

// String renders the audit result; the split-order fields appear once the
// map has grown or when they report damage.
func (a MapAudit) String() string {
	s := fmt.Sprintf("live=%d marked=%d inFree=%d doubled=%v lost=%d cycle=%v",
		a.Live, a.Marked, a.InFree, a.Doubled, a.Lost, a.Cycle)
	if a.ReadRetries > 0 || a.ReadFallbacks > 0 {
		s += fmt.Sprintf(" readRetries=%d readFallbacks=%d", a.ReadRetries, a.ReadFallbacks)
	}
	if a.Splits > 0 || a.SegmentAppends > 0 || a.Disordered || a.BadShortcuts > 0 {
		s += fmt.Sprintf(" dummies=%d disordered=%v badShortcuts=%d splits=%d appends=%d resizeRetries=%d",
			a.Dummies, a.Disordered, a.BadShortcuts, a.Splits, a.SegmentAppends, a.ResizeRetries)
	}
	return s
}

// Audit walks the whole list from bucket 0's dummy, verifying split order,
// then checks the directory and the free set.  Call only at quiescence (no
// handle mid-operation); it reads with the observer pid, taking no
// scheduled steps under the simulator.
func (m *Map) Audit() MapAudit {
	var a MapAudit
	capNow, s := m.Capacity(), m.Buckets()
	seen := make(map[int]int, capNow)
	reached := make([]int, m.heads.Len())
	reached[0] = 1 // the walk starts at dummy 0
	a.Dummies = 1
	cur := linkIdx(m.heads.Get(0).Peek(-1))
	last := Word(0)
	for hops := 0; cur != 0; hops++ {
		if hops > m.maxHops {
			a.Cycle = true
			break
		}
		var w, cs Word
		if b := cur - m.maxCap - 1; b >= 0 {
			if b >= len(reached) {
				a.BadShortcuts++ // a link naming a dummy no split has built
				break
			}
			reached[b]++
			a.Dummies++
			w, cs = m.heads.Get(b).Peek(-1), sortKeyDummy(b)
		} else {
			seen[cur]++
			n := m.node(cur)
			w, cs = n.next.Peek(-1), sortKeyData(n.key.Read(-1))
			if linkMarked(w) {
				a.Marked++
			} else {
				a.Live++
			}
		}
		if after(last, cs) {
			a.Disordered = true
		}
		last = cs
		cur = linkIdx(w)
	}
	for b := 0; b < s; b++ {
		if reached[b] != 1 {
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
	a.Splits = m.splits.Load()
	a.SegmentAppends = m.appends.Load()
	a.ResizeRetries = m.retries.Load()
	a.ReadRetries = m.readRetries.Load()
	a.ReadFallbacks = m.readFallbacks.Load()
	return a
}
