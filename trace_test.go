package abadetect

import (
	"strings"
	"testing"
)

// ticketedKinds are the TraceEvent kinds that draw the global ticket, as
// the GSeq documentation lists them.
var ticketedKinds = map[string]bool{
	"guard-commit": true, "guard-reject": true, "guard-near-miss": true,
	"alloc": true, "exhaust": true, "release": true, "retire": true,
	"grow": true, "epoch-advance": true,
}

// traceKeyLess reports whether x sorts strictly before y in a dump's order
// (GSeq, ticketed first, Pid, Seq).
func traceKeyLess(x, y TraceEvent) bool {
	switch {
	case x.GSeq != y.GSeq:
		return x.GSeq < y.GSeq
	case ticketedKinds[x.Kind] != ticketedKinds[y.Kind]:
		return ticketedKinds[x.Kind]
	case x.Pid != y.Pid:
		return x.Pid < y.Pid
	}
	return x.Seq < y.Seq
}

// TestStructureTrace checks the public flight-recorder surface: a structure
// built WithTracing exposes a merged dump, strictly ascending in (GSeq,
// ticketed first, Pid, Seq), containing the allocator and guard vocabulary;
// one built without returns nil.
func TestStructureTrace(t *testing.T) {
	s, err := NewStack(2, 8, WithTracing(64))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !h.Push(Word(100 + i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if _, ok := h.Pop(); !ok {
		t.Fatal("pop failed")
	}
	ev := s.StructureTrace()
	if len(ev) == 0 {
		t.Fatal("traced stack produced no events")
	}
	kinds := map[string]bool{}
	for i, e := range ev {
		kinds[e.Kind] = true
		if i > 0 && !traceKeyLess(ev[i-1], e) {
			t.Fatalf("dump not in (GSeq, ticketed first, Pid, Seq) order at %d: %v after %v", i, e, ev[i-1])
		}
	}
	for _, want := range []string{"alloc", "release", "guard-commit", "op-begin", "op-commit"} {
		if !kinds[want] {
			t.Errorf("dump missing kind %q (got %v)", want, kinds)
		}
	}
	if got := ev[0].String(); !strings.Contains(got, ev[0].Kind) {
		t.Errorf("TraceEvent.String() = %q does not name its kind", got)
	}

	plain, err := NewStack(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr := plain.StructureTrace(); tr != nil {
		t.Fatalf("untraced stack returned a dump of %d events", len(tr))
	}
}

// TestStructureTraceMap exercises the map and queue variants of the same
// surface — each structure family wires the recorder through its own seams.
func TestStructureTraceMap(t *testing.T) {
	m, err := NewMap(2, 8, WithTracing(64))
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Put(1, 11) || !h.Put(2, 22) {
		t.Fatal("puts failed")
	}
	if !h.Delete(1) {
		t.Fatal("Delete(1) found nothing")
	}
	ev := m.StructureTrace()
	if len(ev) == 0 {
		t.Fatal("traced map produced no events")
	}
	// The Delete marks node 1's link, unlinks node 1 through the guard of
	// its bucket, which it heads, and releases the node, in that order.
	want := []func(e TraceEvent) bool{
		func(e TraceEvent) bool { return e.Kind == "guard-commit" && e.Obj == "mnext[1]" && e.A&1 == 1 },
		func(e TraceEvent) bool { return e.Kind == "guard-commit" && strings.HasPrefix(e.Obj, "mhead[") },
		func(e TraceEvent) bool { return e.Kind == "release" && e.A == 1 },
	}
	for _, e := range ev {
		if len(want) > 0 && want[0](e) {
			want = want[1:]
		}
	}
	if len(want) > 0 {
		t.Errorf("Delete(1) recorded no mark, bucket-guard unlink and release in order (%d missing): %v", len(want), ev)
	}

	q, err := NewQueue(2, 8, WithTracing(64))
	if err != nil {
		t.Fatal(err)
	}
	qh, err := q.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if !qh.Enq(7) {
		t.Fatal("enq failed")
	}
	if v, ok := qh.Deq(); !ok || v != 7 {
		t.Fatalf("deq = (%d,%v), want (7,true)", v, ok)
	}
	if ev := q.StructureTrace(); len(ev) == 0 {
		t.Fatal("traced queue produced no events")
	}
}

// TestStructureTraceGrowOnGrowersRing pins where a pool extension is
// recorded: on the ring of the process whose allocation ran out and grew
// the map, not on ring 0.  Every Put goes through handle 1, so every grow
// event must carry Pid 1 and ring 0 must hold none.
func TestStructureTraceGrowOnGrowersRing(t *testing.T) {
	m, err := NewMap(2, 32, WithGrowth(4096), WithTracing(4096))
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	for k := Word(1); k <= 200; k++ {
		if !h.Put(k, k) {
			t.Fatalf("put %d failed", k)
		}
	}
	grows := 0
	for _, e := range m.StructureTrace() {
		if e.Kind != "grow" {
			continue
		}
		grows++
		if e.Pid != 1 {
			t.Errorf("grow event %v recorded on ring %d, want 1 (the growing process)", e, e.Pid)
		}
	}
	if grows == 0 {
		t.Fatal("200 puts into a 32-node map recorded no grow event")
	}
}
