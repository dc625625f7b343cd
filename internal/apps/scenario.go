package apps

import (
	"fmt"

	"abadetect/internal/guard"
	"abadetect/internal/shmem"
	"abadetect/internal/sim"
	"abadetect/internal/trace"
)

// This file holds the deterministic §1 corruption scripts, shared by the
// experiment harness (internal/bench E6), the differential foil tests, and
// the reclamation-prevention tests.  They rely on the FIFO allocator
// model's recycling order, so they always run on the default pool —
// optionally wrapped by a reclaimer (WithReclaimer), which is exactly the
// configuration that demonstrates prevention-by-allocation-discipline.

// ScenarioResult reports one deterministic corruption script's outcome.
type ScenarioResult struct {
	// Fooled reports whether the victim's stale commit was accepted.
	Fooled bool
	// Corrupt reports whether the quiescent audit found structural damage,
	// and Detail renders it.
	Corrupt bool
	Detail  string
	// Starved reports that an adversary allocation failed because
	// reclamation deferred every free node — the epoch scheme's signature
	// under a stalled victim.  The ABA is then prevented by exhaustion
	// rather than by a changed index; either way the victim's commit is
	// rejected.
	Starved bool
	// Guard aggregates the structure's reference-guard counters.  Under a
	// reclaimer the interesting reading is NearMisses == 0: the recycle leg
	// never happened, so there was no ABA for the guard to see.
	Guard guard.Metrics
	// Pool carries the allocator's exhaustion and reclamation counters.
	Pool PoolStats
	// Incident is the merged flight-recorder dump of the script: the watch
	// snapshot frozen at the first near-miss or allocator exhaustion when
	// one fired, the full end-of-run merge otherwise (a fooled raw run has
	// no near-miss to fire on — the corruption IS the absence of detection,
	// and the full dump carries the armed load, the recycle, and the
	// corrupting commit in happens-before order).
	Incident []trace.Event
}

// ScenarioRecorder builds a corruption script's flight recorder for n
// processes and its incident predicate: the first detected-and-prevented
// ABA or the first allocator exhaustion freezes the rings.
func ScenarioRecorder(n int) *trace.Recorder {
	rec := trace.New(n, 128)
	rec.Watch(func(e trace.Event) bool {
		return e.Kind == trace.KindGuardNearMiss || e.Kind == trace.KindExhaust
	})
	return rec
}

// ScenarioIncident resolves the dump a script attaches to its
// ScenarioResult: the frozen watch snapshot when ScenarioRecorder's
// predicate fired, the final merge otherwise.
func ScenarioIncident(rec *trace.Recorder) []trace.Event {
	if inc := rec.Incident(); inc != nil {
		return inc
	}
	return rec.Merge()
}

// StackABAScenario plays the paper's §1 corruption script against a stack:
// the victim stops between reading the head's successor and the commit,
// while the adversary performs 4 successful head swings (3 pops + 1 push)
// that — with immediate reuse — bring the head index back to the victim's
// loaded node.  Under a reclaimer the victim's published protection keeps
// its node out of the allocator, so the adversary's push comes back with a
// *different* index (hp) or starves (epoch, all nodes in limbo): the word
// never repeats and the stale commit is rejected without any guard-level
// detection.
func StackABAScenario(prot Protection, tagBits uint, opts ...StructOption) (ScenarioResult, error) {
	var r ScenarioResult
	rec := ScenarioRecorder(2)
	opts = append(opts, WithTrace(rec))
	s, err := NewStack(shmem.NewNativeFactory(), 2, 3, prot, tagBits, opts...)
	if err != nil {
		return r, err
	}
	adversary, err := s.Handle(0)
	if err != nil {
		return r, err
	}
	victim, err := s.Handle(1)
	if err != nil {
		return r, err
	}
	// Setup: chain 3(103) -> 2(102) -> 1(101).
	for i := 1; i <= 3; i++ {
		if !adversary.Push(Word(100 + i)) {
			return r, fmt.Errorf("apps: scenario setup push %d failed", i)
		}
	}
	// Victim: loads head (node 3) and its successor (node 2), then stalls —
	// holding its reclamation protection, when one is configured.
	if _, _, empty := victim.PopBegin(); empty {
		return r, fmt.Errorf("apps: scenario stack unexpectedly empty")
	}
	// Adversary: three pops (frees 3, 2, 1) and one push.  With immediate
	// reuse the FIFO allocator hands node 3 back, so the head *index* is 3
	// again — but node 2 is free and node 3's successor is now nil.
	for i := 0; i < 3; i++ {
		if _, ok := adversary.Pop(); !ok {
			return r, fmt.Errorf("apps: scenario adversary pop %d failed", i)
		}
	}
	// The recycle leg: under a reclaimer the victim's protection blocks
	// node 3, so this push either allocates a different node or starves.
	r.Starved = !adversary.Push(104)
	// Victim resumes: the commit swings head to the freed node 2 iff the
	// guard is fooled.
	_, r.Fooled = victim.PopCommit()
	audit := s.Audit()
	r.Corrupt, r.Detail = audit.Corrupt(), audit.String()
	r.Guard = s.GuardMetrics()
	r.Pool = s.PoolStats()
	r.Incident = ScenarioIncident(rec)
	return r, nil
}

// QueueABAScenario plays the classic Michael–Scott recycling ABA on the
// simulator: the victim's Deq snapshots (head, next[head]) and is preempted
// before the head commit; the adversary drains the queue, enqueues through
// the recycled nodes, and dequeues again so the head *index* is restored (3
// successful head swings) while the chain underneath has moved on.  A
// raw-guarded queue with immediate reuse accepts the victim's stale commit —
// dequeuing a value a second time and stranding the head on a free node;
// tag, LL/SC, and detector guards reject it, and a reclaimer prevents the
// recycling leg outright (the victim's protections cover both snapshotted
// nodes, so the adversary's enqueue starves instead of reusing them).
//
// The window writes nothing an Observer read could see: it ends between the
// victim's last head Validate and its read of the successor's value, so the
// schedule cuts the victim once it is poised on that value register
// (sim.Runner.PoisedOn).  The results are read as soon as the victim's head
// commit resolves: a rejected Deq retries, finds the queue empty, and
// drains the deferred nodes its protections held.
func QueueABAScenario(prot Protection, tagBits uint, opts ...StructOption) (ScenarioResult, error) {
	var r ScenarioResult
	rec := ScenarioRecorder(2)
	opts = append(opts, WithTrace(rec))
	runner := sim.NewRunner(2)
	defer runner.Close()
	q, err := NewQueue(runner.Factory(), 2, 2, prot, tagBits, opts...) // 3 nodes: dummy 1, free 2 and 3
	if err != nil {
		return r, err
	}
	adversary, err := q.Handle(0)
	if err != nil {
		return r, err
	}
	victim, err := q.Handle(1)
	if err != nil {
		return r, err
	}
	var setUp bool
	err = runner.SetProgram(0, func(*sim.Proc) {
		// Set-up: dummy node 1, then A in node 2 and B in node 3.
		if !adversary.Enq(601) || !adversary.Enq(602) {
			panic("apps: queue scenario set-up Enq failed")
		}
		setUp = true
		// Drain both values (head swings 1->2->3, nodes 1 and 2 retire),
		// enqueue C through recycled node 1, and dequeue it (head swings
		// 3->1).  With immediate reuse the head index is 1 again, but node 2
		// is free and node 1's next is nil.  Under a reclaimer nodes 1 and 2
		// sit in limbo behind the victim's protections, so the enqueue
		// starves and the head parks on node 3.
		for i := 0; i < 2; i++ {
			if _, ok := adversary.Deq(); !ok {
				panic("apps: queue scenario drain Deq failed")
			}
		}
		if !adversary.Enq(603) {
			r.Starved = true
		} else if _, ok := adversary.Deq(); !ok {
			panic("apps: queue scenario Deq of C failed")
		}
	})
	if err == nil {
		err = runner.SetProgram(1, func(*sim.Proc) { victim.Deq() })
	}
	if err == nil {
		err = runner.Start()
	}
	// The schedule: the adversary's set-up; the victim until it is about to
	// read A's value out of node 2, holding the armed head commit 1 -> 2; the
	// adversary's legs inside that window; the victim until its commit
	// resolves.
	step := func(pid int, stop func(int) bool) {
		if err == nil {
			_, err = runner.StepUntil(pid, scenarioSteps, stop)
		}
	}
	step(0, func(int) bool { return setUp })
	step(1, func(int) bool { return runner.PoisedOn(1, q.value[2]) })
	if err == nil && runner.Done(1) {
		err = fmt.Errorf("apps: queue scenario Deq never reached its commit")
	}
	step(0, nil)
	before := q.head.Metrics()
	step(1, func(int) bool {
		m := q.head.Metrics()
		return m.Commits != before.Commits || m.Rejected != before.Rejected
	})
	if err != nil {
		return r, err
	}
	// Committing head 1 -> 2 re-dequeues the long-gone A and parks the head
	// on free node 2 iff the guard is fooled.
	r.Fooled = q.head.Metrics().Rejected == before.Rejected
	audit := q.Audit()
	r.Corrupt, r.Detail = audit.Corrupt(), audit.String()
	r.Guard = q.GuardMetrics()
	r.Pool = q.PoolStats()
	r.Incident = ScenarioIncident(rec)
	return r, nil
}

// scenarioSteps bounds each leg of a simulated script's schedule, far above
// what any leg takes, so a livelocked leg is an error, not a hang.
const scenarioSteps = 100_000
