package sim

import (
	"reflect"
	"testing"

	"abadetect/internal/shmem"
)

// buildIncrementers returns a started runner where each of n processes
// increments a shared CAS-based counter reps times.
func buildIncrementers(t *testing.T, n, reps int) (*Runner, shmem.WritableCAS) {
	t.Helper()
	r := NewRunner(n)
	ctr := r.Factory().NewCAS("ctr", 0)
	for pid := 0; pid < n; pid++ {
		pid := pid
		if err := r.SetProgram(pid, func(p *Proc) {
			for i := 0; i < reps; i++ {
				for {
					v := ctr.Read(p.ID())
					if ctr.CompareAndSwap(p.ID(), v, v+1) {
						break
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r, ctr
}

func TestRoundRobinRunCompletes(t *testing.T) {
	r, ctr := buildIncrementers(t, 3, 4)
	defer r.Close()
	steps, err := r.Run(&RoundRobin{}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllDone() {
		t.Fatal("programs did not finish")
	}
	if got := ctr.Read(-1); got != 12 {
		t.Errorf("counter = %d, want 12", got)
	}
	if steps != r.Steps() {
		t.Errorf("Run reported %d steps, runner counted %d", steps, r.Steps())
	}
}

func TestSoloRunIsSequential(t *testing.T) {
	r, ctr := buildIncrementers(t, 2, 5)
	defer r.Close()
	// Run process 0 alone to completion: 5 increments, 2 steps each.
	solo := StrategyFunc(func(poised []int, step int) int {
		for _, pid := range poised {
			if pid == 0 {
				return 0
			}
		}
		return -1
	})
	steps, err := r.Run(solo, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 10 {
		t.Errorf("solo run took %d steps, want 10", steps)
	}
	if got := ctr.Read(-1); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Done(0) != true || r.Done(1) != false {
		t.Error("wrong done states after solo run")
	}
}

func TestStepUntil(t *testing.T) {
	r, ctr := buildIncrementers(t, 2, 3)
	defer r.Close()
	// A cut: exactly three of process 0's steps, the second increment's read.
	if n, err := r.StepUntil(0, 100, func(taken int) bool { return taken == 3 }); err != nil || n != 3 {
		t.Fatalf("cut = (%d, %v), want (3, nil)", n, err)
	}
	// A state predicate, checked before every step: process 1 stops as soon
	// as its first increment is visible to the observer.
	if n, err := r.StepUntil(1, 100, func(int) bool { return ctr.Read(Observer) == 2 }); err != nil || n != 2 {
		t.Fatalf("predicate stop = (%d, %v), want (2, nil)", n, err)
	}
	// Process 0's pending CAS fails against process 1's write and retries.
	if n, err := r.StepUntil(0, 100, nil); err != nil || n != 5 || !r.Done(0) {
		t.Fatalf("run to the end = (%d, %v), done=%v; want (5, nil), done", n, err, r.Done(0))
	}
	// A finished process takes no step; a process past its limit is an error.
	if n, err := r.StepUntil(0, 100, nil); err != nil || n != 0 {
		t.Fatalf("finished process = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := r.StepUntil(1, 1, nil); err == nil {
		t.Error("a process still running at its limit should be an error")
	}
	if _, err := r.StepUntil(2, 1, nil); err == nil {
		t.Error("StepUntil with a bad pid should fail")
	}
	if got := ctr.Read(Observer); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
}

func TestPoisedOn(t *testing.T) {
	r := NewRunner(2)
	defer r.Close()
	f := r.Factory()
	a, b := f.NewRegister("a", 0), f.NewCAS("b", 0)
	if err := r.SetProgram(0, func(p *Proc) {
		a.Write(p.ID(), 1)
		a.Read(p.ID())
		b.CompareAndSwap(p.ID(), 0, 2)
	}); err != nil {
		t.Fatal(err)
	}
	if r.PoisedOn(0, a) {
		t.Error("a process that has not started is poised on nothing")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if !r.PoisedOn(0, a) || r.PoisedOn(0, b) || r.PoisedOn(1, a) {
		t.Error("after Start process 0 should be poised on a, and process 1, which has no program, on nothing")
	}
	// A stop on the object a step touches, not on what it writes: the cut
	// lands before the CAS with a read in between that changes nothing.
	if n, err := r.StepUntil(0, 100, func(int) bool { return r.PoisedOn(0, b) }); err != nil || n != 2 {
		t.Fatalf("stop before the CAS = (%d, %v), want (2, nil)", n, err)
	}
	if got := b.Read(Observer); got != 0 {
		t.Errorf("b = %d before the CAS, want 0", got)
	}
	if r.PoisedOn(0, []int{}) {
		t.Error("a value that is not an object of the runner matched")
	}
	if _, err := r.StepUntil(0, 100, nil); err != nil {
		t.Fatal(err)
	}
	if r.PoisedOn(0, b) {
		t.Error("a finished process is poised on nothing")
	}
}

func TestContendedCASFails(t *testing.T) {
	// Schedule both processes' Reads before either CAS: exactly one CAS
	// must fail, demonstrating real interleaving.
	r := NewRunner(2)
	ctr := r.Factory().NewCAS("ctr", 0)
	results := make([]bool, 2)
	for pid := 0; pid < 2; pid++ {
		pid := pid
		if err := r.SetProgram(pid, func(p *Proc) {
			v := ctr.Read(p.ID())
			results[p.ID()] = ctr.CompareAndSwap(p.ID(), v, v+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, pid := range []int{0, 1, 0, 1} {
		if err := r.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	if !r.AllDone() {
		t.Fatal("not done")
	}
	if !results[0] || results[1] {
		t.Errorf("results = %v, want [true false]", results)
	}
	if got := ctr.Read(-1); got != 1 {
		t.Errorf("counter = %d, want 1 (one lost update by design)", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, []Event) {
		r, ctr := buildIncrementers(t, 3, 3)
		defer r.Close()
		if _, err := r.Run(NewRandom(42), 10000); err != nil {
			t.Fatal(err)
		}
		return ctr.Read(-1), r.History()
	}
	v1, h1 := run()
	v2, h2 := run()
	if v1 != v2 {
		t.Errorf("replay diverged: %d vs %d", v1, v2)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Error("histories diverged under identical seeds")
	}
}

func TestHistoryRecording(t *testing.T) {
	r := NewRunner(2)
	reg := r.Factory().NewRegister("x", 0)
	if err := r.SetProgram(0, func(p *Proc) {
		p.Invoke("Write", 7)
		reg.Write(p.ID(), 7)
		p.Return()
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetProgram(1, func(p *Proc) {
		p.Invoke("Read")
		v := reg.Read(p.ID())
		p.Return(v)
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(&RoundRobin{}, 100); err != nil {
		t.Fatal(err)
	}
	h := r.History()
	if len(h) != 4 {
		t.Fatalf("history has %d events, want 4: %+v", len(h), h)
	}
	// Events must have strictly increasing times.
	for i := 1; i < len(h); i++ {
		if h[i].Time <= h[i-1].Time {
			t.Errorf("event times not strictly increasing: %+v", h)
		}
	}
	// Return events carry the method of the matching invocation.
	for _, e := range h {
		if e.Kind == Return && e.Method == "" {
			t.Errorf("return without method: %+v", e)
		}
	}
}

func TestRecordingCanBeDisabled(t *testing.T) {
	r := NewRunner(1)
	reg := r.Factory().NewRegister("x", 0)
	r.SetRecording(false)
	if err := r.SetProgram(0, func(p *Proc) {
		p.Invoke("Write", 1)
		reg.Write(p.ID(), 1)
		p.Return()
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(&RoundRobin{}, 100); err != nil {
		t.Fatal(err)
	}
	if len(r.History()) != 0 {
		t.Error("recording disabled but events present")
	}
}

func TestCloseAbortsInfinitePrograms(t *testing.T) {
	r := NewRunner(2)
	reg := r.Factory().NewRegister("x", 0)
	for pid := 0; pid < 2; pid++ {
		if err := r.SetProgram(pid, func(p *Proc) {
			for { // infinite workload, the paper's repeated-method loop
				reg.Read(p.ID())
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Step(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	r.Close() // must not hang; goroutine leak would trip -race/test timeout
	if !r.AllDone() {
		t.Error("processes still live after Close")
	}
}

func TestProgramPanicIsCaptured(t *testing.T) {
	r := NewRunner(1)
	reg := r.Factory().NewRegister("x", 0)
	if err := r.SetProgram(0, func(p *Proc) {
		reg.Read(p.ID())
		panic("boom")
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err := r.Step(0)
	if err == nil {
		t.Fatal("want error from panicking program")
	}
	if r.Err() == nil {
		t.Error("runner should remember the program error")
	}
}

func TestStepValidation(t *testing.T) {
	r := NewRunner(2)
	if err := r.Step(0); err == nil {
		t.Error("Step before Start should fail")
	}
	if err := r.SetProgram(0, func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err == nil {
		t.Error("second Start should fail")
	}
	if err := r.SetProgram(1, func(p *Proc) {}); err == nil {
		t.Error("SetProgram after Start should fail")
	}
	if err := r.Step(5); err == nil {
		t.Error("Step with bad pid should fail")
	}
	if err := r.Step(0); err == nil {
		t.Error("Step on finished process should fail")
	}
	if err := r.Step(1); err == nil {
		t.Error("Step on process without program should fail")
	}
}

func TestPoisedAndAllDone(t *testing.T) {
	r, _ := buildIncrementers(t, 3, 1)
	defer r.Close()
	if got := r.Poised(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("Poised = %v", got)
	}
	// Finish process 1 alone: 1 increment = 2 steps.
	if err := r.Step(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := r.Poised(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Poised = %v", got)
	}
	if r.AllDone() {
		t.Error("AllDone too early")
	}
}

func TestScriptStrategy(t *testing.T) {
	r, ctr := buildIncrementers(t, 2, 2)
	defer r.Close()
	s := NewScript([]int{0, 0, 0, 0, 1, 1, 1, 1})
	steps, err := r.Run(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 8 || !r.AllDone() {
		t.Fatalf("steps=%d allDone=%v", steps, r.AllDone())
	}
	if got := ctr.Read(-1); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if s.Remaining() != 0 {
		t.Errorf("script remaining = %d", s.Remaining())
	}
}

func TestSimFactoryFootprint(t *testing.T) {
	r := NewRunner(1)
	f := r.Factory()
	f.NewRegister("a", 0)
	f.NewCAS("b", 0)
	f.NewCAS("c", 0)
	fp := f.Footprint()
	if fp.Registers != 1 || fp.CASObjects != 2 {
		t.Errorf("footprint = %v", fp)
	}
	r.Close()
}

func TestExploreCountsInterleavings(t *testing.T) {
	// Two processes, one step each: exactly 2 schedules.
	build := func() (*Runner, error) {
		r := NewRunner(2)
		reg := r.Factory().NewRegister("x", 0)
		for pid := 0; pid < 2; pid++ {
			pid := pid
			if err := r.SetProgram(pid, func(p *Proc) {
				reg.Write(p.ID(), Word(pid+1))
			}); err != nil {
				return nil, err
			}
		}
		return r, r.Start()
	}
	n, err := Explore(build, ExploreLimits{MaxSteps: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("explored %d executions, want 2", n)
	}

	// Two processes, two steps each: C(4,2) = 6 schedules.
	build2 := func() (*Runner, error) {
		r := NewRunner(2)
		reg := r.Factory().NewRegister("x", 0)
		for pid := 0; pid < 2; pid++ {
			if err := r.SetProgram(pid, func(p *Proc) {
				reg.Read(p.ID())
				reg.Write(p.ID(), 1)
			}); err != nil {
				return nil, err
			}
		}
		return r, r.Start()
	}
	n, err = Explore(build2, ExploreLimits{MaxSteps: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("explored %d executions, want 6", n)
	}
}

func TestExploreStepLimit(t *testing.T) {
	build := func() (*Runner, error) {
		r := NewRunner(1)
		reg := r.Factory().NewRegister("x", 0)
		if err := r.SetProgram(0, func(p *Proc) {
			for i := 0; i < 100; i++ {
				reg.Read(p.ID())
			}
		}); err != nil {
			return nil, err
		}
		return r, r.Start()
	}
	if _, err := Explore(build, ExploreLimits{MaxSteps: 5}, nil); err == nil {
		t.Error("want error when executions exceed the step limit")
	}
}
