package kv

import (
	"fmt"
	"sort"

	"abadetect/internal/apps"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// growScenarioCap is the resize script's capacity and ceiling: the smallest
// ceiling whose directory may double (from one bucket to two), with a pool
// that is full once the script's keys are in, so a freed node is recycled
// at once.
const growScenarioCap = 2 * growThreshold

// growScenarioKeys finds the resize script's keys by searching the key space
// (the hash is fixed, so the keys are found, not chosen): growScenarioCap
// keys of bucket 1 once the directory doubles — they sort after dummy 1 — of
// which ka sorts first and the rest are fillers, and kr, a key of bucket 0,
// which sorts before dummy 1.
func growScenarioKeys() (ka, kr Word, fillers []Word) {
	var late []Word
	for k := Word(1); len(late) < growScenarioCap || kr == 0; k++ {
		if after(sortKeyDummy(1), sortKeyData(k)) {
			if kr == 0 {
				kr = k
			}
		} else if len(late) < growScenarioCap {
			late = append(late, k)
		}
	}
	sort.Slice(late, func(i, j int) bool { return after(sortKeyData(late[j]), sortKeyData(late[i])) })
	return late[0], kr, late[1:]
}

// MapGrowABAScenario plays the resize-under-traffic corruption script: a
// victim splitter stalls between walking to a new dummy's position and the
// commit that links it, while the adversary deletes the node the walk
// stopped at and recycles it, under a key that sorts *before* the dummy, at
// the very same position.
//
// The map starts with one bucket and a full pool at its ceiling (capacity =
// ceiling = growScenarioCap), so recycling is immediate.  With ka in node 1
// and the fillers behind it, the list is d0 → 1(ka) → fillers…:
//
//  1. the victim doubles the directory: its walk for dummy 1 stops at node
//     1, the first node sorting after dummy 1, and it stalls holding the
//     armed commit head[0]: 1 → d1, with d1's own link already naming 1;
//  2. the adversary's Delete(ka) marks node 1 and swings head[0] past it,
//     freeing it;
//  3. the adversary's Put(kr, ·) allocates node 1 straight back and, since
//     kr sorts before every filler, links it right after dummy 0: head[0]
//     names node 1 again, now carrying a key of bucket 0;
//  4. the victim resumes: committing head[0]: 1 → d1 links the new dummy
//     ahead of kr iff the guard is fooled — a raw guard is, so the list
//     reads d0 → d1 → kr…, out of order, and kr's binding is lost (a lookup
//     stops at d1, which sorts after it); tagged/LL/SC/detector guards
//     reject with a near-miss, and the splitter walks again.
//
// The armed word takes two writes in the window, so a 1-bit tag wraps back
// to the armed value and is fooled too, where 8 and 16 bits hold.
//
// Under a reclaimer the victim's walk published node 1 in a protection slot
// (hp) or pinned the epoch, so the freed node stays out of the allocator
// and the adversary's Put starves at the ceiling: the recycle leg never
// runs, and the stale commit fails on plain inequality with zero
// near-misses — prevention by allocation discipline, before the guard ever
// sees an ABA.
func MapGrowABAScenario(f shmem.Factory, prot Protection, tagBits uint, opts ...apps.StructOption) (apps.ScenarioResult, error) {
	var r apps.ScenarioResult
	rec := trace.New(2, 128)
	rec.Watch(func(e trace.Event) bool {
		return e.Kind == trace.KindGuardNearMiss || e.Kind == trace.KindExhaust
	})
	opts = append(opts, apps.WithGrowth(growScenarioCap), apps.WithTrace(rec))
	m, err := NewMap(f, 2, growScenarioCap, 1, prot, tagBits, opts...)
	if err != nil {
		return r, err
	}
	adversary, err := m.Handle(0)
	if err != nil {
		return r, err
	}
	victim, err := m.Handle(1)
	if err != nil {
		return r, err
	}
	ka, kr, fillers := growScenarioKeys()
	// Setup: ka into node 1, then the fillers fill the pool.
	if !adversary.Put(ka, 101) {
		return r, fmt.Errorf("kv: grow scenario setup put failed")
	}
	for i, k := range fillers {
		if !adversary.Put(k, Word(200+i)) {
			return r, fmt.Errorf("kv: grow scenario filler put %d failed", i)
		}
	}
	// The adversary runs inside the victim's first stall; a rejected commit
	// makes the splitter walk again, which stalls a second time.
	stalls := 0
	var setupErr error
	victim.SplitStall = func() {
		stalls++
		if stalls > 1 {
			return
		}
		if !adversary.Delete(ka) {
			setupErr = fmt.Errorf("kv: grow scenario Delete(ka) failed")
		}
		// The recycle leg: under a reclaimer the victim's protection blocks
		// node 1, and the pool is at its ceiling, so this put starves.
		r.Starved = !adversary.Put(kr, 104)
	}
	if !victim.GrowBuckets() {
		return r, fmt.Errorf("kv: grow scenario directory doubling failed")
	}
	if setupErr != nil {
		return r, setupErr
	}
	if stalls == 0 {
		return r, fmt.Errorf("kv: grow scenario split never stalled")
	}
	// The stale commit was accepted iff the split needed no second walk.
	r.Fooled = stalls == 1
	audit := m.Audit()
	r.Corrupt, r.Detail = audit.Corrupt(), audit.String()
	r.Guard = m.GuardMetrics()
	r.Pool = m.PoolStats()
	if inc := rec.Incident(); inc != nil {
		r.Incident = inc
	} else {
		r.Incident = rec.Merge()
	}
	return r, nil
}
