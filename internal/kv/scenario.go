package kv

import (
	"fmt"
	"sort"

	"abadetect/internal/apps"
	"abadetect/internal/shmem"
)

// mapScenarioKeys returns the script's four keys, picked from 1..4 by split
// order (the hash is fixed, so the keys are found, not chosen): k3 < k2 < k1
// on the list, so inserting k1, k2, k3 into nodes 1, 2, 3 links the run
// 3 → 2 → 1, and k4 < k1, so a recycled node carrying k4 links back in at the
// head of the run.
func mapScenarioKeys() (k1, k2, k3, k4 Word) {
	ks := []Word{1, 2, 3, 4}
	sort.Slice(ks, func(i, j int) bool { return after(sortKeyData(ks[j]), sortKeyData(ks[i])) })
	return ks[3], ks[1], ks[0], ks[2]
}

// MapABAScenario plays the §1 corruption script against the map: a victim
// deleter marks the head-most node of a single-bucket run and stalls
// between the logical delete and the physical unlink, while the adversary
// recycles nodes through the allocator until the bucket head *index* is
// restored with a different run underneath.
//
// Concretely, on the run head→3→2→1 (keys k3,k2,k1 in nodes 3,2,1):
//
//  1. the victim begins Delete(k3): it marks node 3 and stalls before the
//     unlink commit head: 3 → 2;
//  2. the adversary's Get(k1) helps unlink the marked node 3 (freeing it),
//     Delete(k2) unlinks and frees node 2, and Put(k4, ·) allocates — with
//     immediate FIFO reuse it gets node 3 back and links it at the head, so
//     the head word is 3<<1 again while node 2 is free and node 3 now
//     carries k4;
//  3. the victim resumes: committing head 3 → 2 swings the bucket onto the
//     freed node 2 iff the guard is fooled — a raw guard is (the §1
//     corruption: a doubled node, a lost binding), tagged/LL/SC/detector
//     guards reject with a near-miss.
//
// Under a reclaimer the victim's published protection keeps node 3 out of
// the allocator, so the adversary's Put either comes back with a different
// index (hp: the head word never repeats, the stale commit fails on plain
// inequality, zero near-misses) or starves (epoch: every free node sits in
// limbo behind the victim's pin) — prevention by allocation discipline, with
// no ABA left for the guard to see.
func MapABAScenario(f shmem.Factory, prot Protection, tagBits uint, opts ...apps.StructOption) (apps.ScenarioResult, error) {
	var r apps.ScenarioResult
	rec := apps.ScenarioRecorder(2)
	opts = append(opts, apps.WithTrace(rec))
	m, err := NewMap(f, 2, 3, 1, prot, tagBits, opts...) // one bucket: every key collides
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
	k1, k2, k3, k4 := mapScenarioKeys()
	// Setup: run 3(k3) -> 2(k2) -> 1(k1).
	for i, k := range []Word{k1, k2, k3} {
		if !adversary.Put(k, Word(101+i)) {
			return r, fmt.Errorf("kv: scenario setup put %d failed", k)
		}
	}
	// Victim: marks node 3 (the logical delete) and stalls before the
	// unlink — holding its reclamation protection, when one is configured.
	cur, succ, found := victim.DeleteBegin(k3)
	if !found || cur != 3 || succ != 2 {
		return r, fmt.Errorf("kv: scenario DeleteBegin = (%d,%d,%v), want (3,2,true)", cur, succ, found)
	}
	// Adversary: the Get helps unlink the marked node 3 (one successful
	// head swing, node 3 freed), the Delete marks node 2 and swings the head
	// past it, and the Put recycles.  With immediate reuse the FIFO
	// allocator hands node 3 back, so the head *word* is 3<<1 again.
	if v, ok := adversary.Get(k1); !ok || v != 101 {
		return r, fmt.Errorf("kv: scenario Get(k1) = (%d,%v), want (101,true)", v, ok)
	}
	if !adversary.Delete(k2) {
		return r, fmt.Errorf("kv: scenario Delete(k2) failed")
	}
	// The recycle leg: under a reclaimer the victim's protection blocks
	// node 3, so this put either allocates a different node or starves.
	r.Starved = !adversary.Put(k4, 104)
	// Victim resumes: the unlink commit swings the bucket head to the freed
	// node 2 iff the guard is fooled.
	r.Fooled = victim.DeleteCommit()
	audit := m.Audit()
	r.Corrupt, r.Detail = audit.Corrupt(), audit.String()
	r.Guard = m.GuardMetrics()
	r.Pool = m.PoolStats()
	r.Incident = apps.ScenarioIncident(rec)
	return r, nil
}
