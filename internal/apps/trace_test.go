package apps_test

import (
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/kv"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// visibilityStep is one operation of a visibility script and the kind of the
// last event it records; KindGuardLoad stands for a clean or a dirty load.
type visibilityStep struct {
	name string
	op   func()
	last trace.Kind
}

// lagMax is the flight recorder's force-publish threshold (trace's lagMax,
// documented in doc.go): an operation that records more events than this
// publishes some of them mid-operation.
const lagMax = 16

// checkVisibility runs the steps as process pid and checks that, once each
// operation has returned, pid's newest merged event is the one the
// operation recorded last.  The newest event must be of the step's kind,
// and a probe recorded right after the check, outside any bracket and so
// published at once, must take the next Seq: an operation that left events
// unpublished in its bracket would leave a gap before the probe.
func checkVisibility(t *testing.T, rec *trace.Recorder, pid int, steps []visibilityStep) {
	t.Helper()
	for _, s := range steps {
		s.op()
		var last trace.Event
		for _, e := range rec.Merge() {
			if e.Pid == int32(pid) && e.Seq > last.Seq {
				last = e
			}
		}
		kind := last.Kind
		if kind == trace.KindGuardDirtyLoad {
			kind = trace.KindGuardLoad
		}
		if kind != s.last {
			t.Fatalf("after %s: pid %d's newest merged event is %v, want a %v\n%s",
				s.name, pid, last, s.last, trace.Format(rec.Merge()))
		}
		rec.Record(pid, trace.KindOpBegin, "probe", 0, 0)
		evs := rec.Events(pid)
		if probe := evs[len(evs)-1]; probe.Seq != last.Seq+1 {
			t.Fatalf("after %s: pid %d's newest merged event was Seq %d, but it had recorded %d\n%s",
				s.name, pid, last.Seq, probe.Seq-1, trace.Format(evs))
		}
	}
}

// newestSeq returns the Seq of pid's newest published event, 0 if none.
func newestSeq(rec *trace.Recorder, pid int) uint64 {
	if evs := rec.Events(pid); len(evs) > 0 {
		return evs[len(evs)-1].Seq
	}
	return 0
}

// reclaimed lists the configurations the visibility tests run: LL/SC, whose
// reads take the wait-free fast path, and raw, which under a reclaimer takes
// the guarded fallback read every time.  Both retire into hazard pointers,
// so an operation can end in a retire, a scan or a drain.
var reclaimed = []struct {
	name string
	prot apps.Protection
}{{"llsc+hp", apps.LLSC}, {"raw+hp", apps.Raw}}

// TestStackOpsPublishOnReturn checks that every traced stack operation has
// published its events when it returns: Push, Pop, both split halves, and
// the reads — the fast Peek and IsEmpty, and the guarded fallback read.
func TestStackOpsPublishOnReturn(t *testing.T) {
	for _, c := range reclaimed {
		t.Run(c.name, func(t *testing.T) {
			rec := trace.New(2, 256)
			s, err := apps.NewStack(shmem.NewNativeFactory(), 2, 8, c.prot, 0, apps.WithReclaimer(reclaim.NewHazard), apps.WithTrace(rec))
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			// The fast Peek records one guard load; the guarded read ends
			// with the protection it publishes before reading the value.
			peek := trace.KindGuardLoad
			if c.prot == apps.Raw {
				peek = trace.KindProtect
			}
			checkVisibility(t, rec, 0, []visibilityStep{
				{"Push", func() { h.Push(1) }, trace.KindGuardCommit},
				{"Push", func() { h.Push(2) }, trace.KindGuardCommit},
				{"Peek", func() { h.Peek() }, peek},
				{"IsEmpty", func() { h.IsEmpty() }, trace.KindGuardLoad},
				{"PopBegin", func() { h.PopBegin() }, trace.KindOpBegin},
				{"PopCommit", func() { h.PopCommit() }, trace.KindRetire},
				{"Pop", func() { h.Pop() }, trace.KindRetire},
				{"Peek on empty", func() { h.Peek() }, trace.KindGuardLoad},
				{"Pop on empty", func() { h.Pop() }, trace.KindDrain},
			})
		})
	}
}

// TestQueueOpsPublishOnReturn is TestStackOpsPublishOnReturn for the queue:
// Enq, Deq, both split halves, and the reads.
func TestQueueOpsPublishOnReturn(t *testing.T) {
	for _, c := range reclaimed {
		t.Run(c.name, func(t *testing.T) {
			rec := trace.New(2, 256)
			q, err := apps.NewQueue(shmem.NewNativeFactory(), 2, 8, c.prot, 0, apps.WithReclaimer(reclaim.NewHazard), apps.WithTrace(rec))
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			// The fast reads end with the successor link's load; the guarded
			// read ends with the protection of the successor, or on an empty
			// queue with the drain of its idle moment.
			peek, empty := trace.KindGuardLoad, trace.KindGuardLoad
			if c.prot == apps.Raw {
				peek, empty = trace.KindProtect, trace.KindDrain
			}
			checkVisibility(t, rec, 0, []visibilityStep{
				{"Enq", func() { h.Enq(1) }, trace.KindGuardCommit},
				{"Enq", func() { h.Enq(2) }, trace.KindGuardCommit},
				{"Peek", func() { h.Peek() }, peek},
				{"IsEmpty", func() { h.IsEmpty() }, peek},
				{"DeqBegin", func() { h.DeqBegin() }, trace.KindOpBegin},
				{"DeqCommit", func() { h.DeqCommit() }, trace.KindRetire},
				{"Deq", func() { h.Deq() }, trace.KindRetire},
				{"Peek on empty", func() { h.Peek() }, empty},
				{"IsEmpty on empty", func() { h.IsEmpty() }, empty},
				{"Deq on empty", func() { h.Deq() }, trace.KindDrain},
			})
		})
	}
}

// TestMapOpsPublishOnReturn is TestStackOpsPublishOnReturn for the map, on
// a two-node map that grows: a Put that appends a node segment, Get hit and
// miss (fast on LL/SC, the guarded traversal on raw), an overwriting Put,
// Puts that lengthen the one-bucket run, a Delete of the deepest of them —
// it walks past at least ten nodes, so it records more than lagMax events
// and force-publishes mid-operation — both split halves, a directory split,
// and a missing Delete.
func TestMapOpsPublishOnReturn(t *testing.T) {
	for _, c := range reclaimed {
		t.Run(c.name, func(t *testing.T) {
			rec := trace.New(2, 256)
			m, err := kv.NewMap(shmem.NewNativeFactory(), 2, 2, 1, c.prot, 0, apps.WithGrowth(64), apps.WithReclaimer(reclaim.NewHazard), apps.WithTrace(rec))
			if err != nil {
				t.Fatal(err)
			}
			h, err := m.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			// A walk ends with the load of the link past the key; a miss on
			// the guarded traversal drains at its idle moment.
			miss := trace.KindGuardLoad
			if c.prot == apps.Raw {
				miss = trace.KindDrain
			}
			fillers := []uint64{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
			var deep, deleteEvents uint64
			checkVisibility(t, rec, 0, []visibilityStep{
				{"Put", func() { h.Put(1, 10) }, trace.KindGuardLoad},
				{"Put", func() { h.Put(2, 20) }, trace.KindGuardLoad},
				{"Put that grows the pool", func() { h.Put(3, 30) }, trace.KindGuardLoad},
				{"Get", func() { h.Get(1) }, trace.KindGuardLoad},
				{"Get miss", func() { h.Get(99) }, miss},
				{"Put overwrite", func() { h.Put(1, 11) }, trace.KindRetire},
				{"Puts that lengthen the run", func() {
					for _, k := range fillers {
						h.Put(k, 10*k)
					}
				}, trace.KindGuardLoad},
				{"Gets that find the deepest filler", func() { deep = deepest(rec, h, fillers) }, trace.KindGuardLoad},
				{"Delete of the deepest filler", func() {
					before := newestSeq(rec, 0)
					h.Delete(deep)
					deleteEvents = newestSeq(rec, 0) - before
				}, trace.KindRetire},
				{"DeleteBegin", func() { h.DeleteBegin(3) }, trace.KindOpBegin},
				{"DeleteCommit", func() { h.DeleteCommit() }, trace.KindRetire},
				{"GrowBuckets", func() { h.GrowBuckets() }, trace.KindGuardCommit},
				{"Delete miss", func() { h.Delete(99) }, trace.KindDrain},
			})
			if deleteEvents <= lagMax {
				t.Errorf("the Delete of the deepest filler recorded %d events, want more than %d: it no longer publishes mid-operation", deleteEvents, lagMax)
			}
			if m.Capacity() <= 2 || m.Buckets() <= 1 {
				t.Fatalf("map did not grow: capacity %d, buckets %d", m.Capacity(), m.Buckets())
			}
		})
	}
}

// deepest returns the key of keys that sits deepest in h's one-bucket run:
// the one whose Get records the most events, as every node a walk passes
// adds at least the load of its link.
func deepest(rec *trace.Recorder, h *kv.Handle, keys []uint64) uint64 {
	var best, most uint64
	for _, k := range keys {
		before := newestSeq(rec, 0)
		h.Get(k)
		if n := newestSeq(rec, 0) - before; n > most {
			best, most = k, n
		}
	}
	return best
}
