package kv

import (
	"fmt"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// TestMapScenarioIncidentOrder is the flight recorder's acceptance test:
// each raw+none map script must attach an incident dump whose merged event
// sequence tells the whole §1 story in happens-before order —
//
//  1. the victim's armed load of the bucket head mhead[0] (the reference it
//     will later commit against);
//  2. the adversary's release of the recycled node (node 3, freed by the
//     helped unlink, in MapABAScenario; node 1, freed by the adversary's
//     Delete, in MapGrowABAScenario);
//  3. the adversary's re-allocation of that node (the recycle that restores
//     the head word);
//  4. the victim's corrupting commit on mhead[0], *accepted* — because for
//     a raw guard the recycled word compares equal.
func TestMapScenarioIncidentOrder(t *testing.T) {
	for _, in := range []struct {
		name     string
		run      func() (apps.ScenarioResult, error)
		recycled uint64
	}{
		{"delete", func() (apps.ScenarioResult, error) { return MapABAScenario(shmem.NewNativeFactory(), apps.Raw, 0) }, 3},
		{"grow", func() (apps.ScenarioResult, error) { return MapGrowABAScenario(apps.Raw, 0) }, 1},
	} {
		r, err := in.run()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !r.Fooled || !r.Corrupt {
			t.Fatalf("%s: raw+none scenario no longer corrupts: fooled=%v corrupt=%v", in.name, r.Fooled, r.Corrupt)
		}
		if len(r.Incident) == 0 {
			t.Fatalf("%s: scenario attached no incident dump", in.name)
		}

		// pid 0 is the adversary, pid 1 the victim (scenario construction
		// order).
		armedLoad, release, realloc, commit := -1, -1, -1, -1
		for i, e := range r.Incident {
			switch {
			case e.Pid == 1 && e.Kind == trace.KindGuardLoad && e.Obj == "mhead[0]" && armedLoad < 0:
				armedLoad = i // the victim's first head load is the armed one
			case e.Pid == 0 && e.Kind == trace.KindRelease && e.A == in.recycled:
				release = i
			case e.Pid == 0 && e.Kind == trace.KindAlloc && e.A == in.recycled && release >= 0:
				realloc = i // the node's re-allocation after its release
			case e.Pid == 1 && e.Kind == trace.KindGuardCommit && e.Obj == "mhead[0]":
				commit = i // the victim's accepted commit
			}
		}
		if armedLoad < 0 || release < 0 || realloc < 0 || commit < 0 {
			t.Fatalf("%s: incident dump missing legs: armedLoad=%d release=%d realloc=%d commit=%d\n%s",
				in.name, armedLoad, release, realloc, commit, trace.Format(r.Incident))
		}
		if !(armedLoad < release && release < realloc && realloc < commit) {
			t.Fatalf("%s: incident legs out of happens-before order: armedLoad=%d release=%d realloc=%d commit=%d\n%s",
				in.name, armedLoad, release, realloc, commit, trace.Format(r.Incident))
		}
		// The dump itself must be strictly ascending in (GSeq, ticketed
		// first, Pid, Seq) (Merge's contract).
		for i := 1; i < len(r.Incident); i++ {
			if !mergeKeyLess(r.Incident[i-1], r.Incident[i]) {
				t.Fatalf("%s: incident dump not in (GSeq, ticketed first, Pid, Seq) order at %d\n%s", in.name, i, trace.Format(r.Incident))
			}
		}
	}
}

// mergeKeyLess reports whether x sorts strictly before y in a merged dump's
// order: (GSeq, ticketed first, Pid, Seq).
func mergeKeyLess(x, y trace.Event) bool {
	switch {
	case x.GSeq != y.GSeq:
		return x.GSeq < y.GSeq
	case x.Kind.Ticketed() != y.Kind.Ticketed():
		return x.Kind.Ticketed()
	case x.Pid != y.Pid:
		return x.Pid < y.Pid
	}
	return x.Seq < y.Seq
}

// TestMapScenarioWatchFiresOnNearMiss checks the watch leg: a tagged run of
// the same script detects the ABA, so the incident is the *frozen* watch
// snapshot ending at the near-miss, not the end-of-run merge.
func TestMapScenarioWatchFiresOnNearMiss(t *testing.T) {
	r, err := MapABAScenario(shmem.NewNativeFactory(), apps.Tagged, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fooled || r.Corrupt {
		t.Fatalf("tagged scenario corrupted: fooled=%v corrupt=%v", r.Fooled, r.Corrupt)
	}
	if r.Guard.NearMisses == 0 {
		t.Fatal("tagged scenario recorded no near-miss")
	}
	if len(r.Incident) == 0 {
		t.Fatal("scenario attached no incident dump")
	}
	last := r.Incident[len(r.Incident)-1]
	if last.Kind != trace.KindGuardNearMiss {
		t.Fatalf("watch snapshot does not end at the near-miss: last=%v\n%s", last, trace.Format(r.Incident))
	}
}

// TestMapTracedGrowthLabels checks that a traced map names the guards it
// builds while growing exactly as it names the ones it is constructed with:
// a node of an appended segment records under mnext[i] and a split-off
// bucket under mhead[b].
func TestMapTracedGrowthLabels(t *testing.T) {
	const capacity, buckets, keys = 8, 2, 16
	rec := trace.New(1, 1<<12)
	m, err := NewMap(shmem.NewNativeFactory(), 1, capacity, buckets, apps.LLSC, 0, apps.WithGrowth(64), apps.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := Word(1); k <= keys; k++ {
		if !h.Put(k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	if !h.GrowBuckets() {
		t.Fatal("forced split did not double the directory")
	}
	if m.Capacity() <= capacity || m.Buckets() <= buckets {
		t.Fatalf("map did not grow: capacity %d, buckets %d", m.Capacity(), m.Buckets())
	}
	// Overwrite every key once more: each Put walks its bucket from the
	// bucket's guard through the grown nodes.
	for k := Word(1); k <= keys; k++ {
		if !h.Put(k, k+100) {
			t.Fatalf("overwrite Put(%d) failed", k)
		}
	}
	var grownNode, splitHead string
	for _, e := range rec.Merge() {
		var i int
		if _, err := fmt.Sscanf(e.Obj, "mnext[%d]", &i); err == nil && i > capacity {
			grownNode = e.Obj
		}
		if _, err := fmt.Sscanf(e.Obj, "mhead[%d]", &i); err == nil && i >= buckets {
			splitHead = e.Obj
		}
	}
	if grownNode == "" || splitHead == "" {
		t.Fatalf("no guard event on an appended node (%q) or a split-off bucket (%q)", grownNode, splitHead)
	}
}
