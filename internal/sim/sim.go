// Package sim provides a deterministic shared-memory simulator: it executes
// per-process programs in lock-step, one shared-memory step at a time, under
// a programmable schedule.
//
// This is the execution model of the paper.  A schedule (a sequence of
// process IDs) decides which process takes the next shared-memory step; all
// process-local computation between two steps runs together with the
// preceding step.  Determinism is what makes the paper's constructions
// executable: adversarial schedules (package lowerbound) can interleave a
// victim's steps with other processes' operations exactly as the proofs of
// Lemmas 1-3 prescribe, and identical schedules always produce identical
// executions.
//
// Programs are ordinary Go code: the algorithms under test are constructed
// over the Runner's Factory, whose base objects block at a "gate" before
// every shared-memory operation until the scheduler grants the step.  The
// same algorithm code therefore runs natively (shmem.NativeFactory) and
// under the simulator, unchanged.
//
// The Runner also records a history of method invocations and responses
// (annotated by the programs via Proc.Invoke/Proc.Return) with logical
// timestamps, which package check consumes for linearizability checking.
package sim

import (
	"errors"
	"fmt"

	"abadetect/internal/shmem"
)

// Word is the base-object value type.
type Word = shmem.Word

// Program is the code run by one simulated process.  It receives the
// process's Proc context, whose ID names the process and whose
// Invoke/Return methods annotate the history.
type Program func(p *Proc)

// errAborted is the sentinel panic used to unwind aborted programs.
var errAborted = errors.New("sim: aborted")

// EventKind distinguishes history events.
type EventKind int

// Event kinds.
const (
	// Invoke marks a method invocation.
	Invoke EventKind = iota + 1
	// Return marks a method response.
	Return
)

// Event is one entry of the recorded history.
type Event struct {
	// Time is the logical timestamp (strictly increasing across all events
	// and shared-memory steps).
	Time int
	// Pid is the process the event belongs to.
	Pid int
	// Kind is Invoke or Return.
	Kind EventKind
	// Method is the method name given to Invoke; Return events repeat the
	// method of the matching Invoke.
	Method string
	// Args are the invocation arguments (Invoke events).
	Args []Word
	// Rets are the response values (Return events).
	Rets []Word
}

// Runner drives a set of simulated processes.
//
// Lifecycle: NewRunner, SetProgram for each process, Start, then any mix of
// Step/Run, and finally Close (which aborts still-running programs and waits
// for all goroutines to exit).  A Runner must be used from a single
// goroutine.
type Runner struct {
	n       int
	procs   []*proc
	started bool
	closed  bool

	clock   int // logical time: bumped on every shared step and every event
	steps   int // total shared-memory steps granted
	events  []Event
	record  bool
	pending []string // pending method name per pid, for Return events
}

// proc is the scheduler-side handle of one simulated process.
type proc struct {
	pid     int
	program Program
	resume  chan struct{}
	pause   chan pauseKind
	aborted bool // set by the scheduler before the abort resume
	done    bool // scheduler-side view
	err     error
	at      any // the object the process is poised on, set at its gate
}

type pauseKind int

const (
	pausedAtGate pauseKind = iota + 1
	finished
)

// NewRunner creates a runner for n processes with history recording on.
func NewRunner(n int) *Runner {
	r := &Runner{
		n:       n,
		procs:   make([]*proc, n),
		record:  true,
		pending: make([]string, n),
	}
	for pid := range r.procs {
		r.procs[pid] = &proc{
			pid:    pid,
			resume: make(chan struct{}),
			pause:  make(chan pauseKind),
		}
	}
	return r
}

// NumProcs returns the number of simulated processes.
func (r *Runner) NumProcs() int { return r.n }

// SetRecording turns history recording on or off (on by default).
func (r *Runner) SetRecording(on bool) { r.record = on }

// Factory returns the base-object factory whose objects are gated by this
// runner's scheduler.  Objects are created before Start, or by a program
// inside its own step, as a growing map builds its new buckets and nodes;
// creating an object is not a step.
func (r *Runner) Factory() shmem.Factory { return &simFactory{r: r} }

// SetProgram assigns the program run by process pid.  It must be called
// before Start.
func (r *Runner) SetProgram(pid int, prog Program) error {
	if r.started {
		return errors.New("sim: SetProgram after Start")
	}
	if pid < 0 || pid >= r.n {
		return fmt.Errorf("sim: pid %d out of range [0,%d)", pid, r.n)
	}
	r.procs[pid].program = prog
	return nil
}

// Start launches all programs and runs each until its first shared-memory
// step (or completion).  Processes with no program are immediately done.
func (r *Runner) Start() error {
	if r.started {
		return errors.New("sim: Start called twice")
	}
	r.started = true
	for _, p := range r.procs {
		if p.program == nil {
			p.done = true
			continue
		}
		go r.runProgram(p)
		// Wait until the program reaches its first gate or finishes.
		if k := <-p.pause; k == finished {
			p.done = true
		}
	}
	return nil
}

// runProgram is the goroutine body of one simulated process.
func (r *Runner) runProgram(p *proc) {
	defer func() {
		if e := recover(); e != nil {
			if err, ok := e.(error); !ok || !errors.Is(err, errAborted) {
				p.err = fmt.Errorf("sim: process %d panicked: %v", p.pid, e)
			}
		}
		p.pause <- finished
	}()
	p.program(&Proc{pid: p.pid, r: r})
}

// Observer is the pid that bypasses the scheduler gate: operations with a
// negative pid execute immediately, outside the simulation, without counting
// as a step.  Tests and experiment drivers use it to inspect or seed object
// state between scheduled steps (when every process is paused, so the access
// is race-free and deterministic).
const Observer = -1

// gate blocks the calling process goroutine until the scheduler grants it a
// step on obj.  It is called by the simulated base objects before every
// operation.
func (r *Runner) gate(pid int, obj *simObject) {
	if pid < 0 {
		return // observer access, see Observer
	}
	p := r.procs[pid]
	p.at = obj
	p.pause <- pausedAtGate
	<-p.resume
	if p.aborted {
		panic(errAborted)
	}
	r.clock++
	r.steps++
}

// Poised returns the processes that are paused at a gate (started, not yet
// finished), in pid order.
func (r *Runner) Poised() []int {
	out := make([]int, 0, r.n)
	for _, p := range r.procs {
		if p.program != nil && !p.done {
			out = append(out, p.pid)
		}
	}
	return out
}

// PoisedOn reports whether process pid is paused at a gate whose step is an
// operation on obj, an object made by this runner's Factory: its next step
// touches obj.  A stop predicate uses it to cut a process just before an
// access that writes nothing an Observer read could see.
func (r *Runner) PoisedOn(pid int, obj any) bool {
	p := r.procs[pid]
	return !p.done && p.at == obj
}

// Done reports whether process pid has finished its program (or was never
// given one).
func (r *Runner) Done(pid int) bool { return r.procs[pid].done }

// AllDone reports whether every program has finished.
func (r *Runner) AllDone() bool {
	for _, p := range r.procs {
		if p.program != nil && !p.done {
			return false
		}
	}
	return true
}

// Err returns the first program error (panic) observed, if any.
func (r *Runner) Err() error {
	for _, p := range r.procs {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// Steps returns the total number of shared-memory steps granted so far.
func (r *Runner) Steps() int { return r.steps }

// Step grants process pid exactly one shared-memory step (plus the local
// computation that follows it, up to the next step or program completion).
func (r *Runner) Step(pid int) error {
	if !r.started {
		return errors.New("sim: Step before Start")
	}
	if pid < 0 || pid >= r.n {
		return fmt.Errorf("sim: pid %d out of range [0,%d)", pid, r.n)
	}
	p := r.procs[pid]
	if p.program == nil || p.done {
		return fmt.Errorf("sim: process %d is not poised", pid)
	}
	p.resume <- struct{}{}
	if k := <-p.pause; k == finished {
		p.done = true
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// StepUntil grants process pid steps, one at a time, until it finishes or
// stop reports true.  stop is asked before every step with the number of
// steps granted so far, and a nil stop runs pid to completion; so a caller
// cuts a process after an exact prefix of its steps, or at the first state
// an Observer read recognises.  It returns the number of steps granted.  A
// process still running after limit steps is an error, so a livelocked
// program fails its caller instead of hanging it.
func (r *Runner) StepUntil(pid, limit int, stop func(taken int) bool) (int, error) {
	if pid < 0 || pid >= r.n {
		return 0, fmt.Errorf("sim: pid %d out of range [0,%d)", pid, r.n)
	}
	taken := 0
	for !r.procs[pid].done && (stop == nil || !stop(taken)) {
		if taken == limit {
			return taken, fmt.Errorf("sim: process %d still running after %d steps", pid, limit)
		}
		if err := r.Step(pid); err != nil {
			return taken, err
		}
		taken++
	}
	return taken, nil
}

// Run drives the schedule chosen by strategy until all programs finish, the
// strategy yields an invalid pid, or maxSteps steps have been taken.  It
// returns the number of steps granted.
func (r *Runner) Run(strategy Strategy, maxSteps int) (int, error) {
	taken := 0
	for taken < maxSteps {
		poised := r.Poised()
		if len(poised) == 0 {
			break
		}
		pid := strategy.Next(poised, taken)
		if pid < 0 {
			break // strategy exhausted
		}
		if err := r.Step(pid); err != nil {
			return taken, err
		}
		taken++
	}
	return taken, nil
}

// Close aborts all unfinished programs and waits for their goroutines to
// exit.  It is safe to call multiple times.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if !r.started {
		r.started = true // prevent further SetProgram/Start
		return
	}
	for _, p := range r.procs {
		if p.program == nil || p.done {
			continue
		}
		p.aborted = true
		p.resume <- struct{}{}
		for {
			if k := <-p.pause; k == finished {
				p.done = true
				break
			}
			// The program swallowed the abort panic and reached another
			// gate; insist.
			p.resume <- struct{}{}
		}
	}
}

// History returns the recorded events.  The returned slice is shared; do not
// modify it while the runner is in use.
func (r *Runner) History() []Event { return r.events }

// Proc is the per-process context passed to programs.
type Proc struct {
	pid int
	r   *Runner
}

// ID returns the process ID.
func (p *Proc) ID() int { return p.pid }

// Invoke records a method invocation in the history.  Programs call it
// immediately before running an operation of the object under test.
func (p *Proc) Invoke(method string, args ...Word) {
	if !p.r.record {
		return
	}
	p.r.clock++
	p.r.events = append(p.r.events, Event{
		Time: p.r.clock, Pid: p.pid, Kind: Invoke, Method: method, Args: args,
	})
	p.r.pending[p.pid] = method
}

// Return records the response of the most recent Invoke by this process.
func (p *Proc) Return(rets ...Word) {
	if !p.r.record {
		return
	}
	p.r.clock++
	p.r.events = append(p.r.events, Event{
		Time: p.r.clock, Pid: p.pid, Kind: Return, Method: p.r.pending[p.pid], Rets: rets,
	})
}

// simFactory allocates gate-controlled base objects.
type simFactory struct {
	r  *Runner
	fp shmem.Footprint
}

var _ shmem.Factory = (*simFactory)(nil)

func (f *simFactory) NewRegister(name string, init Word) shmem.Register {
	f.fp.Registers++
	return &simObject{r: f.r, v: init}
}

func (f *simFactory) NewCAS(name string, init Word) shmem.WritableCAS {
	f.fp.CASObjects++
	return &simObject{r: f.r, v: init}
}

func (f *simFactory) Footprint() shmem.Footprint { return f.fp }

// simObject is a base object whose every operation is one scheduled step.
// Operations run inside the window granted by Runner.Step, which serializes
// them, so plain field access is race-free (the resume/pause channels carry
// the happens-before edges).
type simObject struct {
	r *Runner
	v Word
}

var (
	_ shmem.Register    = (*simObject)(nil)
	_ shmem.WritableCAS = (*simObject)(nil)
)

func (o *simObject) Read(pid int) Word {
	o.r.gate(pid, o)
	return o.v
}

func (o *simObject) Write(pid int, v Word) {
	o.r.gate(pid, o)
	o.v = v
}

func (o *simObject) CompareAndSwap(pid int, old, new Word) bool {
	o.r.gate(pid, o)
	if o.v != old {
		return false
	}
	o.v = new
	return true
}
