package main

import (
	"testing"

	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Reclaimers with each combination of optional seams.  The registry's
// schemes cover "both" (hp, epoch) and "neither" (none); these cover the
// mixed cases.
type resizingReclaimer struct{ reclaim.Reclaimer }

func (resizingReclaimer) Resize(int) {}

type tracingReclaimer struct{ reclaim.Reclaimer }

func (tracingReclaimer) SetTracer(*trace.Recorder) {}

func TestReclaimerWrapperKeepsExactlyTheOptionalSeams(t *testing.T) {
	f := shmem.NewNativeFactory()
	var inners []reclaim.Reclaimer
	for _, id := range []string{"hp", "epoch", "epoch:auto", "none"} {
		mk, err := registry.NewReclaimMaker(id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := mk(f, id, procs, 64)
		if err != nil {
			t.Fatal(err)
		}
		inners = append(inners, r)
	}
	none := inners[len(inners)-1]
	inners = append(inners, resizingReclaimer{none}, tracingReclaimer{none})

	for _, inner := range inners {
		wrapped := newProbe(procs).wrapReclaimer(inner)
		_, innerRz := inner.(reclaim.Resizer)
		_, innerTr := inner.(reclaim.Traced)
		_, gotRz := wrapped.(reclaim.Resizer)
		_, gotTr := wrapped.(reclaim.Traced)
		if gotRz != innerRz || gotTr != innerTr {
			t.Errorf("%T: wrapper has Resizer=%v Traced=%v, inner has %v %v", inner, gotRz, gotTr, innerRz, innerTr)
		}
		if wrapped.Scheme() != inner.Scheme() {
			t.Errorf("%T: wrapper names scheme %q, inner %q", inner, wrapped.Scheme(), inner.Scheme())
		}
		h, err := wrapped.Handle(0, func(int) {})
		if err != nil {
			t.Fatal(err)
		}
		ih, err := inner.Handle(1, func(int) {})
		if err != nil {
			t.Fatal(err)
		}
		_, innerPr := ih.(reclaim.Pressured)
		if _, gotPr := h.(reclaim.Pressured); gotPr != innerPr {
			t.Errorf("%T: wrapped handle has Pressured=%v, inner handle %v", inner, gotPr, innerPr)
		}
	}
}

func TestDecoratorCallsDoNotAllocate(t *testing.T) {
	f := shmem.NewNativeFactory()
	p := newProbe(procs)
	mk, err := registry.NewGuardMaker(f, procs, registry.GuardSpec{Regime: guard.LLSC})
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.guardMaker(mk)("g", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := g.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	rmk, err := registry.NewReclaimMaker("hp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.reclaimMaker(rmk)(f, "r", procs, 64)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := r.Handle(0, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	batch := []int{2, 3}
	for _, timing := range []bool{false, true} {
		p.lane(0).timing = timing
		allocs := testing.AllocsPerRun(1000, func() {
			v, _ := gh.Load()
			gh.Validate()
			gh.Commit(v + 1)
			gh.Store(v)
			rh.Protect(0, 1)
			rh.Clear()
			rh.Retire(1)
			rh.RetireBatch(batch)
			rh.Drain()
		})
		if allocs != 0 {
			t.Errorf("timing=%v: decorated calls allocate %.1f times per round", timing, allocs)
		}
	}
	if l := p.lane(0); l.loads == 0 || l.guardN == 0 || l.reclaimN == 0 || l.releases == 0 {
		t.Errorf("lane did not record the calls: %+v", *l)
	}
}

// The traced build must be the public build plus decorators: the same base
// objects and the same reclaimer, for every workload.
func TestTracedBuildMatchesPublicBuild(t *testing.T) {
	for _, w := range workloads {
		pub, err := buildPublic(w)
		if err != nil {
			t.Fatal(err)
		}
		f := shmem.NewNativeFactory()
		in, err := buildInternal(w, f, f, newProbe(procs))
		if err != nil {
			t.Fatal(err)
		}
		pa, ia := pub.audit(), in.audit()
		if pa.objects != ia.objects || pa.scheme != ia.scheme {
			t.Errorf("%s: public build has %d objects under %q, traced build %d under %q", w.name, pa.objects, pa.scheme, ia.objects, ia.scheme)
		}
	}
}
