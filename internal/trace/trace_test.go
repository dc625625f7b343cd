package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingWraparound fills a ring past capacity and asserts the oldest
// events are evicted in order: the survivors are exactly the last
// `capacity` events, oldest first, with contiguous sequence numbers and
// strictly ascending merge keys.
func TestRingWraparound(t *testing.T) {
	r := New(1, 8)
	if r.Capacity() != 8 {
		t.Fatalf("capacity: got %d, want 8", r.Capacity())
	}
	const total = 21 // 2×capacity + 5: wraps more than twice
	for i := 0; i < total; i++ {
		r.Record(0, KindGuardLoad, "obj", uint64(i), 0)
	}
	evs := r.Events(0)
	if len(evs) != 8 {
		t.Fatalf("live events: got %d, want 8", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(total - 8 + i + 1) // Seq starts at 1
		wantA := uint64(total - 8 + i)
		if e.Seq != wantSeq || e.A != wantA {
			t.Fatalf("slot %d: got seq=%d a=%d, want seq=%d a=%d", i, e.Seq, e.A, wantSeq, wantA)
		}
		if i > 0 && !keyLess(evs[i-1], evs[i]) {
			t.Fatalf("slot %d: merge key not increasing (%v after %v)", i, evs[i], evs[i-1])
		}
	}
}

// TestCohortStamps wraps a capacity-8 ring past several cohorts, taking a
// snapshot after every event, and checks each returned TS: non-zero, no
// earlier than the recorder's construction, non-decreasing along the ring,
// and the same for every event of one cohort in every snapshot that still
// holds it.
func TestCohortStamps(t *testing.T) {
	r := New(1, 8)
	ring := r.Ring(0)
	stamp := make(map[uint64]int64) // cohort → its TS when first returned
	for n := uint64(1); n <= 5*tsEvery+3; n++ {
		ring.Record(KindGuardLoad, NameNone, n, 0)
		evs := r.Events(0)
		for i, e := range evs {
			if e.TS == 0 || e.TS < r.wall0 {
				t.Fatalf("after %d events: %v has TS %d, recorder built at %d", n, e, e.TS, r.wall0)
			}
			if i > 0 && e.TS < evs[i-1].TS {
				t.Fatalf("after %d events: TS %d of Seq %d precedes TS %d of Seq %d", n, e.TS, e.Seq, evs[i-1].TS, evs[i-1].Seq)
			}
			c := (e.Seq - 1) / tsEvery
			if ts, ok := stamp[c]; !ok {
				stamp[c] = e.TS
			} else if e.TS != ts {
				t.Fatalf("after %d events: Seq %d of cohort %d has TS %d, want the cohort's %d", n, e.Seq, c, e.TS, ts)
			}
		}
	}
	if len(stamp) < 5 {
		t.Fatalf("saw %d cohorts, want at least 5", len(stamp))
	}
}

// TestCapacityRounding pins the power-of-two rounding and the minimum.
func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 8}, {1, 8}, {8, 8}, {9, 16}, {100, 128}, {128, 128},
	} {
		if got := New(1, tc.ask).Capacity(); got != tc.want {
			t.Errorf("New(1, %d).Capacity() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestMergeOrder interleaves two writers deterministically and asserts the
// merged dump is ordered by the global ticket — i.e. by real record order.
func TestMergeOrder(t *testing.T) {
	r := New(2, 16)
	r.Record(0, KindGuardLoad, "x", 1, 0)
	r.Record(1, KindAlloc, "pool", 7, 0)
	r.Record(0, KindGuardCommit, "x", 2, 0)
	r.Record(1, KindRelease, "pool", 7, 0)

	evs := r.Merge()
	if len(evs) != 4 {
		t.Fatalf("merged: got %d events, want 4", len(evs))
	}
	wantPids := []int32{0, 1, 0, 1}
	wantKinds := []Kind{KindGuardLoad, KindAlloc, KindGuardCommit, KindRelease}
	for i, e := range evs {
		if e.Pid != wantPids[i] || e.Kind != wantKinds[i] {
			t.Fatalf("merged[%d] = %v, want pid=%d kind=%v", i, e, wantPids[i], wantKinds[i])
		}
		if i > 0 && evs[i].GSeq <= evs[i-1].GSeq {
			t.Fatalf("merged[%d]: GSeq out of order", i)
		}
	}
}

// keyLess reports whether x sorts strictly before y in Merge's key (GSeq,
// ticketed first, Pid, Seq).
func keyLess(x, y Event) bool {
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

// TestMergeTicketOrder pins the order contract on a deterministic script
// over three rings that interleaves observations with ticketed events:
// ticketed GSeqs are unique and ascending, every observation sorts after
// each ticketed event recorded before it and before each one recorded after
// it, and each ring's events keep their Seq order.  It first pins which
// kinds are ticketed.
func TestMergeTicketOrder(t *testing.T) {
	ticketedKinds := map[Kind]bool{
		KindGuardCommit: true, KindGuardReject: true, KindGuardNearMiss: true,
		KindAlloc: true, KindExhaust: true, KindRelease: true, KindRetire: true,
		KindGrow: true, KindEpochAdvance: true,
	}
	for k := KindNone; k < kindCount; k++ {
		if k.Ticketed() != ticketedKinds[k] {
			t.Errorf("%v.Ticketed() = %v, want %v", k, k.Ticketed(), ticketedKinds[k])
		}
	}
	script := []struct {
		pid  int
		kind Kind
	}{
		{0, KindGuardLoad}, {1, KindGuardLoad}, {2, KindOpBegin},
		{0, KindGuardCommit}, {2, KindProtect}, {1, KindGuardDirtyLoad},
		{1, KindGuardNearMiss}, {1, KindAlloc}, {0, KindDrain},
		{2, KindGuardLoad}, {0, KindOpCommit}, {2, KindRetire},
		{1, KindScan}, {0, KindRelease}, {2, KindTighten},
		{2, KindEpochAdvance}, {1, KindOpCommit}, {0, KindGuardLoad},
	}
	r := New(3, 64)
	type key struct {
		pid int32
		seq uint64
	}
	at := make(map[key]int) // event → its position in the script
	var seq [3]uint64
	for i, s := range script {
		r.Record(s.pid, s.kind, "x", uint64(i), 0)
		seq[s.pid]++
		at[key{int32(s.pid), seq[s.pid]}] = i
	}
	evs := r.Merge()
	if len(evs) != len(script) {
		t.Fatalf("merged %d events, want %d", len(evs), len(script))
	}
	pos := make([]int, len(script)) // script position → merged position
	var lastTicket uint64
	var lastSeq [3]uint64
	for m, e := range evs {
		i, ok := at[key{e.Pid, e.Seq}]
		if !ok || e.Kind != script[i].kind {
			t.Fatalf("merged[%d] = %v is not a recorded event", m, e)
		}
		pos[i] = m
		if e.Kind.Ticketed() {
			if e.GSeq <= lastTicket {
				t.Fatalf("merged[%d] = %v: ticket %d after ticket %d", m, e, e.GSeq, lastTicket)
			}
			lastTicket = e.GSeq
		}
		if e.Seq <= lastSeq[e.Pid] {
			t.Fatalf("merged[%d] = %v: pid %d Seq after %d", m, e, e.Pid, lastSeq[e.Pid])
		}
		lastSeq[e.Pid] = e.Seq
		if m > 0 && !keyLess(evs[m-1], e) {
			t.Fatalf("merged[%d] = %v sorts before merged[%d] = %v", m, e, m-1, evs[m-1])
		}
	}
	for i, o := range script {
		if o.kind.Ticketed() {
			continue
		}
		for j, x := range script {
			if !x.kind.Ticketed() {
				continue
			}
			if before := j < i; before != (pos[j] < pos[i]) {
				t.Errorf("observation %d (%v) and ticketed event %d (%v): recorded before=%v, merged before=%v\n%s",
					i, o.kind, j, x.kind, before, pos[j] < pos[i], Format(evs))
			}
		}
	}
}

// raceLabels are the object labels the concurrent tests cycle through.
var raceLabels = []string{"g", "head", "pool", "mnext[7]", "tail"}

// payload derives an event's kind, label index, and arguments from its
// ring and sequence number, so a reader can check every field of every
// event it copies: a torn slot — fields of two different events — fails.
func payload(pid int32, seq uint64) (k Kind, label int, a, b uint64) {
	k = Kind(1 + (seq+uint64(pid))%uint64(kindCount-1))
	label = int((seq*3 + uint64(pid)) % uint64(len(raceLabels)))
	a = seq<<8 | uint64(pid)
	b = ^a * 0x9e3779b97f4a7c15
	return k, label, a, b
}

// recordPayloads records events Seq from+1 .. to on pid's ring, each with
// its derived payload.
func recordPayloads(r *Recorder, names []Name, pid int, from, to uint64) {
	ring := r.Ring(pid)
	for seq := from + 1; seq <= to; seq++ {
		k, label, a, b := payload(int32(pid), seq)
		ring.Record(k, names[label], a, b)
	}
}

// internAll interns the race labels, in order.
func internAll(r *Recorder) []Name {
	names := make([]Name, len(raceLabels))
	for i, s := range raceLabels {
		names[i] = r.Intern(s)
	}
	return names
}

// checkPayload reports the first field of e that disagrees with the
// payload its Pid and Seq derive.
func checkPayload(e Event) error {
	k, label, a, b := payload(e.Pid, e.Seq)
	if e.Kind != k || e.Obj != raceLabels[label] || e.A != a || e.B != b {
		return fmt.Errorf("torn event %v: want kind=%v obj=%s a=%d b=%d", e, k, raceLabels[label], a, b)
	}
	return nil
}

// TestMergeRace is the single-writer-discipline race test: one writer per
// pid hammering its own ring while Merge runs concurrently.  Run under
// -race this proves the publication protocol covers reader/writer overlap;
// the assertions prove per-ring ordering survives in every merged snapshot,
// and the payload check proves no merged event is torn, with or without
// -race.
func TestMergeRace(t *testing.T) {
	const procs, perProc = 4, 400
	r := New(procs, 64)
	names := internAll(r)
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			recordPayloads(r, names, pid, 0, perProc)
		}(pid)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			evs := r.Merge()
			lastSeq := make(map[int32]uint64)
			for j, e := range evs {
				if j > 0 && !keyLess(evs[j-1], e) {
					t.Errorf("merge: key not strictly increasing (%v after %v)", e, evs[j-1])
					return
				}
				if e.Seq <= lastSeq[e.Pid] {
					t.Errorf("merge: pid %d Seq not increasing", e.Pid)
					return
				}
				lastSeq[e.Pid] = e.Seq
				if err := checkPayload(e); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done

	evs := r.Merge()
	if len(evs) != procs*64 {
		t.Fatalf("final merge: got %d events, want %d (full rings)", len(evs), procs*64)
	}
	for _, e := range evs {
		if err := checkPayload(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeLapStress has two writers lap capacity-8 rings continuously
// while Merge loops, so nearly every copy races a slot reuse.  Every merged
// event must be one a writer recorded (its payload matches its Pid and
// Seq), each ring's events must be contiguous in Seq, and no ring may
// return more than capacity events.
func TestMergeLapStress(t *testing.T) {
	const procs, capacity = 2, 8
	merges := 20000
	if testing.Short() {
		merges = 2000
	}
	r := New(procs, capacity)
	names := internAll(r)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for seq := uint64(0); !stop.Load(); seq += 64 {
				recordPayloads(r, names, pid, seq, seq+64)
			}
		}(pid)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for i := 0; i < merges; i++ {
		evs := r.Merge()
		var count [procs]int
		var lastSeq [procs]uint64
		for j, e := range evs {
			if j > 0 && !keyLess(evs[j-1], e) {
				t.Fatalf("merge %d: key not strictly increasing (%v after %v)", i, e, evs[j-1])
			}
			if err := checkPayload(e); err != nil {
				t.Fatalf("merge %d: %v", i, err)
			}
			if count[e.Pid] > 0 && e.Seq != lastSeq[e.Pid]+1 {
				t.Fatalf("merge %d: pid %d Seq %d after %d, want contiguous", i, e.Pid, e.Seq, lastSeq[e.Pid])
			}
			lastSeq[e.Pid] = e.Seq
			count[e.Pid]++
		}
		for pid, c := range count {
			if c > capacity {
				t.Fatalf("merge %d: ring %d returned %d events, capacity %d", i, pid, c, capacity)
			}
		}
	}
}

// TestWatch arms a predicate and checks the one-shot snapshot includes the
// triggering event and everything before it.
func TestWatch(t *testing.T) {
	r := New(2, 16)
	r.Watch(func(e Event) bool { return e.Kind == KindGuardNearMiss })

	r.Record(0, KindGuardLoad, "x", 1, 0)
	r.Record(1, KindRelease, "pool", 3, 0)
	if _, fired := r.Fired(); fired {
		t.Fatal("watch fired before the predicate matched")
	}
	r.Record(0, KindGuardNearMiss, "x", 2, 1)
	ev, fired := r.Fired()
	if !fired || ev.Kind != KindGuardNearMiss {
		t.Fatalf("watch: fired=%v on %v, want near-miss", fired, ev)
	}
	// Later events must not contaminate the frozen snapshot.
	r.Record(1, KindAlloc, "pool", 3, 0)
	inc := r.Incident()
	if len(inc) != 3 {
		t.Fatalf("incident: got %d events, want 3", len(inc))
	}
	if inc[len(inc)-1].Kind != KindGuardNearMiss {
		t.Fatalf("incident does not end at the triggering event: %v", inc)
	}

	// Re-arming clears the old incident.
	r.Watch(func(e Event) bool { return e.Kind == KindExhaust })
	if r.Incident() != nil {
		t.Fatal("re-arm did not clear the prior incident")
	}
}

// TestRecordNoAllocs pins the tentpole's allocation-free claim: recording
// into a live ring (including wraparound) costs zero heap allocations.
func TestRecordNoAllocs(t *testing.T) {
	r := New(2, 32)
	ring := r.Ring(1)
	head := r.Intern("head")
	if got := testing.AllocsPerRun(200, func() {
		ring.Record(KindGuardCommit, head, 42, 7)
	}); got != 0 {
		t.Fatalf("Ring.Record allocates: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		r.Record(0, KindAlloc, "pool", 3, 0)
	}); got != 0 {
		t.Fatalf("Recorder.Record allocates: %v allocs/op, want 0", got)
	}
	// A nil ring (out-of-range pid, tracing off) must be a free no-op.
	var nilRing *Ring
	if got := testing.AllocsPerRun(200, func() {
		nilRing.Record(KindGuardLoad, NameNone, 0, 0)
	}); got != 0 {
		t.Fatalf("nil Ring.Record allocates: %v allocs/op, want 0", got)
	}
}

// TestFormatAndJSON sanity-checks the human and machine renderings.
func TestFormatAndJSON(t *testing.T) {
	r := New(1, 8)
	r.Record(0, KindEpochAdvance, "epoch", 5, 0)
	evs := r.Merge()

	s := Format(evs)
	if !strings.Contains(s, "epoch-advance") || !strings.Contains(s, "epoch") {
		t.Fatalf("Format output missing fields: %q", s)
	}

	raw, err := json.Marshal(evs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"Kind":"epoch-advance"`) {
		t.Fatalf("JSON kind not symbolic: %s", raw)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if decoded[0]["Obj"] != "epoch" {
		t.Fatalf("roundtrip lost Obj: %v", decoded[0])
	}
}

// TestNilRecorder checks every read-side accessor degrades on nil — the
// tracing-off configuration threads nil recorders everywhere.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Ring(0) != nil {
		t.Fatal("nil recorder returned a ring")
	}
}

// TestLabel pins the label rule: an element's index is formatted only when
// a recorder is attached, byte-for-byte as "family[i]".
func TestLabel(t *testing.T) {
	var off *Recorder
	if got := off.Label("mnext", 7); got != "mnext" {
		t.Errorf("nil recorder: Label = %q, want the bare family", got)
	}
	if got := New(1, 8).Label("mnext", 1048576); got != "mnext[1048576]" {
		t.Errorf("recorder: Label = %q, want mnext[1048576]", got)
	}
}

// TestIntern pins the name table: New interns the fixed labels at their
// constants, re-interning a label returns its first Name, and a recorded
// Name resolves back to its label in a dump.
func TestIntern(t *testing.T) {
	r := New(1, 8)
	for i, s := range fixedNames {
		if got := r.Intern(s); got != Name(i) {
			t.Errorf("Intern(%q) = %d, want the fixed Name %d", s, got, i)
		}
	}
	head := r.Intern("head")
	if again := r.Intern("head"); again != head || head <= NameEpoch {
		t.Fatalf("Intern(head) = %d then %d, want one new Name", head, again)
	}
	r.Ring(0).Record(KindGuardLoad, head, 1, 0)
	r.Ring(0).Record(KindOpBegin, NamePop, 2, 0)
	evs := r.Merge()
	if len(evs) != 2 || evs[0].Obj != "head" || evs[1].Obj != "pop" {
		t.Fatalf("dump = %v, want head then pop", evs)
	}
}

// BenchmarkRecord prices one event on one ring of capacity 4096.  The
// ordering case records commits, which draw the ticket's fetch-add; the
// observation case records guard loads, which load the counter instead.
// Both pay the slot stores, the publishing store, and a clock read per
// cohort.
func BenchmarkRecord(b *testing.B) {
	for _, bc := range []struct {
		name string
		kind Kind
	}{{"ordering", KindGuardCommit}, {"observation", KindGuardLoad}} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(1, 4096)
			ring := r.Ring(0)
			head := r.Intern("head")
			b.ReportAllocs()
			for i := uint64(0); b.Loop(); i++ {
				ring.Record(bc.kind, head, i, 7)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
