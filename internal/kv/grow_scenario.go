package kv

import (
	"fmt"
	"sort"

	"abadetect/internal/apps"
	"abadetect/internal/sim"
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

// MapGrowABAScenario plays the resize-under-traffic corruption script on the
// simulator: a victim splitter is preempted between walking to a new
// dummy's position and the commit that links it, while the adversary
// deletes the node the walk stopped at and recycles it, under a key that
// sorts *before* the dummy, at the very same position.
//
// The map starts with one bucket and a full pool at its ceiling (capacity =
// ceiling = growScenarioCap), so recycling is immediate.  With ka in node 1
// and the fillers behind it, the list is d0 → 1(ka) → fillers…:
//
//  1. the victim doubles the directory: its walk for dummy 1 stops at node
//     1, the first node sorting after dummy 1, and once d1's own link names
//     1 it is preempted, holding the armed commit head[0]: 1 → d1;
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
func MapGrowABAScenario(prot Protection, tagBits uint, opts ...apps.StructOption) (apps.ScenarioResult, error) {
	var r apps.ScenarioResult
	rec := apps.ScenarioRecorder(2)
	opts = append(opts, apps.WithGrowth(growScenarioCap), apps.WithTrace(rec))
	runner := sim.NewRunner(2)
	defer runner.Close()
	m, err := NewMap(runner.Factory(), 2, growScenarioCap, 1, prot, tagBits, opts...)
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
	put := func(k, v Word) {
		if !adversary.Put(k, v) {
			panic(fmt.Sprintf("kv: grow scenario Put(%d) failed", k))
		}
	}
	var setUp, grew bool
	var rejected int64
	err = runner.SetProgram(0, func(*sim.Proc) {
		// Set-up: ka into node 1, then the fillers fill the pool.
		put(ka, 101)
		for i, k := range fillers {
			put(k, Word(200+i))
		}
		setUp = true
		if !adversary.Delete(ka) {
			panic("kv: grow scenario Delete(ka) failed")
		}
		// The recycle leg: under a reclaimer the victim's protection blocks
		// node 1, and the pool is at its ceiling, so this put starves.
		r.Starved = !adversary.Put(kr, 104)
		rejected = m.heads.Get(0).Metrics().Rejected
	})
	if err == nil {
		err = runner.SetProgram(1, func(*sim.Proc) { grew = victim.GrowBuckets() })
	}
	if err == nil {
		err = runner.Start()
	}
	// The schedule: the adversary's set-up; the victim until its walk has
	// stored node 1 into d1's own link, arming its commit on head[0]; the
	// adversary's Delete and Put inside that window; the victim's resume.
	step := func(pid int, stop func(int) bool) {
		if err == nil {
			_, err = runner.StepUntil(pid, growScenarioSteps, stop)
		}
	}
	step(0, func(int) bool { return setUp })
	step(1, func(int) bool { return m.heads.Len() > 1 && linkIdx(m.heads.Get(1).Peek(sim.Observer)) == 1 })
	if err == nil && runner.Done(1) {
		err = fmt.Errorf("kv: grow scenario split never reached its commit")
	}
	step(0, nil)
	step(1, nil)
	if err == nil && !grew {
		err = fmt.Errorf("kv: grow scenario directory doubling failed")
	}
	if err != nil {
		return r, err
	}
	// The stale commit is the victim's first on head[0] after the window:
	// accepted, it links the dummy and ends the split, so it was accepted
	// iff head[0] rejected nothing after the adversary's last step.
	r.Fooled = m.heads.Get(0).Metrics().Rejected == rejected
	audit := m.Audit()
	r.Corrupt, r.Detail = audit.Corrupt(), audit.String()
	r.Guard = m.GuardMetrics()
	r.Pool = m.PoolStats()
	r.Incident = apps.ScenarioIncident(rec)
	return r, nil
}

// growScenarioSteps bounds each leg of the resize script's schedule, far
// above what any leg takes, so a livelocked leg is an error, not a hang.
const growScenarioSteps = 100_000
