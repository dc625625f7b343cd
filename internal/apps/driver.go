package apps

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Instance is one constructed structure plus its fixed benchmark workload —
// the uniform driver behind the application-throughput matrices (E11's
// structure × guard sweep, E12's structure × regime × reclaimer sweep, and
// the load-driven E13–E17).  The registry's KindStructure entries construct
// Instances, so the harness enumerates structures the same way it
// enumerates detectors, LL/SC objects, and reclaimers.
type Instance interface {
	// Worker returns pid's workload step; the argument is the op index.
	// Workers are single-goroutine, like all handles.
	Worker(pid int) (func(i int), error)
	// Audit reports structural damage at quiescence.
	Audit() (corrupt bool, detail string)
	// GuardMetrics aggregates the structure's reference-guard counters.
	GuardMetrics() guard.Metrics
	// FreelistMetrics reports the node pool's guard counters (zero without
	// a guarded pool).
	FreelistMetrics() guard.Metrics
	// PoolStats reports the allocator's exhaustion and reclamation
	// counters (zero scheme "none" for the event flag, which has no pool).
	PoolStats() PoolStats
}

// OpKind names one keyed operation of the traffic model: the op mix a load
// profile configures is a distribution over these.
type OpKind int

// Keyed operations.
const (
	// OpGet looks a key up.
	OpGet OpKind = iota
	// OpPut binds a key to a value.
	OpPut
	// OpDelete removes a key's binding.
	OpDelete
)

// String names the op.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Keyed is the richer driver seam a keyed structure (the hash map) offers on
// top of Instance: a per-process step that takes the operation and the key
// instead of an opaque op index, so the load generator's Zipf popularity and
// get/put/delete mix actually reach the structure.  Structures without keys
// (stack, queue, event flag) simply don't implement it and are driven
// through Worker.
type Keyed interface {
	// KeyedWorker returns pid's keyed step.  Like Worker's step it is
	// single-goroutine.
	KeyedWorker(pid int) (func(op OpKind, key, val Word), error)
}

// ReadMostly is the optional Instance seam for the read-scaling experiments:
// a workload step that is ~90% wait-free reads (Peek/Get) with a 5%/5%
// insert/remove trickle keeping the structure warm.  Structures without a
// read fast path simply don't implement it and stay out of the read-scaling
// matrix.
type ReadMostly interface {
	// ReadMostlyWorker returns pid's read-heavy step; the argument is the op
	// index.  Single-goroutine, like Worker's step.
	ReadMostlyWorker(pid int) (func(i int), error)
}

// InstanceOptions selects the allocator configuration of a benchmark
// instance: a guarded free list, a reclaimer, growth, and tracing.
type InstanceOptions struct {
	// GuardedPool routes the free list through a guard of the structure's
	// regime (see WithGuardedPool).
	GuardedPool bool
	// Reclaim, when non-nil, routes node releases through a safe-memory-
	// reclamation scheme (see WithReclaimer).
	Reclaim reclaim.Maker
	// GrowTo, when positive, enables online growth up to that many nodes on
	// structures that support it (see WithGrowth).
	GrowTo int
	// Trace, when non-nil, attaches a flight recorder to every guard,
	// allocator, and reclaimer seam (see WithTrace).
	Trace *trace.Recorder
}

// StructOpts renders the instance options as constructor options.
func (io InstanceOptions) StructOpts(mk guard.Maker) []StructOption {
	opts := []StructOption{WithMaker(mk)}
	if io.GuardedPool {
		opts = append(opts, WithGuardedPool())
	}
	if io.Reclaim != nil {
		opts = append(opts, WithReclaimer(io.Reclaim))
	}
	if io.GrowTo > 0 {
		opts = append(opts, WithGrowth(io.GrowTo))
	}
	if io.Trace != nil {
		opts = append(opts, WithTrace(io.Trace))
	}
	return opts
}

// maxSpin bounds the queue's retry loops in matrix runs: a raw-guarded
// queue that has been ABA-corrupted can cycle its next chain, and a bounded
// spin turns the resulting livelock into failed operations.  A worker whose
// handle spends one budget issues no further operations (see
// queueInstance), so a corrupted foil costs one budget per worker, not one
// per remaining op.
const maxSpin = 10_000

// NewStackInstance builds a stack of the given capacity whose workload is a
// push/pop pair per op.
func NewStackInstance(f shmem.Factory, n, capacity int, mk guard.Maker, io InstanceOptions) (Instance, error) {
	s, err := NewStack(f, n, capacity, 0, 0, io.StructOpts(mk)...)
	if err != nil {
		return nil, err
	}
	return stackInstance{s}, nil
}

type stackInstance struct{ s *Stack }

func (in stackInstance) Worker(pid int) (func(i int), error) {
	h, err := in.s.Handle(pid)
	if err != nil {
		return nil, err
	}
	return func(i int) {
		h.Push(Word(pid)<<32 | Word(i))
		h.Pop()
	}, nil
}

// ReadMostlyWorker: 1 push and 1 pop per 20 ops, 18 wait-free peeks between
// them — the read-scaling workload (E14).  The push leads each cycle so the
// peeks mostly observe a non-empty stack.
func (in stackInstance) ReadMostlyWorker(pid int) (func(i int), error) {
	h, err := in.s.Handle(pid)
	if err != nil {
		return nil, err
	}
	return func(i int) {
		switch i % 20 {
		case 0:
			h.Push(Word(pid)<<32 | Word(i))
		case 19:
			h.Pop()
		default:
			h.Peek()
		}
	}, nil
}

func (in stackInstance) Audit() (bool, string) {
	a := in.s.Audit()
	return a.Corrupt(), a.String()
}

func (in stackInstance) GuardMetrics() guard.Metrics    { return in.s.GuardMetrics() }
func (in stackInstance) FreelistMetrics() guard.Metrics { return in.s.FreelistMetrics() }
func (in stackInstance) PoolStats() PoolStats           { return in.s.PoolStats() }

// NewQueueInstance builds a queue of the given capacity whose workload is
// an enq/deq pair per op, with bounded retry loops (see QueueHandle.MaxSpin).
func NewQueueInstance(f shmem.Factory, n, capacity int, mk guard.Maker, io InstanceOptions) (Instance, error) {
	q, err := NewQueue(f, n, capacity, 0, 0, io.StructOpts(mk)...)
	if err != nil {
		return nil, err
	}
	return queueInstance{q: q, abandoned: new(atomic.Int64)}, nil
}

// queueInstance drives a queue through bounded handles.  Once a worker's
// handle has spent a MaxSpin budget the queue is livelocked for it, so the
// worker skips its remaining ops and counts them in abandoned; the audit
// reports them.
type queueInstance struct {
	q         *Queue
	abandoned *atomic.Int64
}

func (in queueInstance) Worker(pid int) (func(i int), error) {
	h, err := in.q.Handle(pid)
	if err != nil {
		return nil, err
	}
	h.MaxSpin = maxSpin
	return func(i int) {
		if h.spunOut {
			in.abandoned.Add(1)
			return
		}
		h.Enq(Word(pid)<<32 | Word(i))
		h.Deq()
	}, nil
}

// ReadMostlyWorker: 1 enq and 1 deq per 20 ops, 18 wait-free peeks between
// them — the queue's read-scaling workload (E14).
func (in queueInstance) ReadMostlyWorker(pid int) (func(i int), error) {
	h, err := in.q.Handle(pid)
	if err != nil {
		return nil, err
	}
	h.MaxSpin = maxSpin
	return func(i int) {
		if h.spunOut {
			in.abandoned.Add(1)
			return
		}
		switch i % 20 {
		case 0:
			h.Enq(Word(pid)<<32 | Word(i))
		case 19:
			h.Deq()
		default:
			h.Peek()
		}
	}, nil
}

// Audit fails a queue that abandoned ops: a spent spin budget means a
// worker could make no progress on it.
func (in queueInstance) Audit() (bool, string) {
	a := in.q.Audit()
	if n := in.abandoned.Load(); n > 0 {
		return true, fmt.Sprintf("%s abandoned=%d", a, n)
	}
	return a.Corrupt(), a.String()
}

func (in queueInstance) GuardMetrics() guard.Metrics    { return in.q.GuardMetrics() }
func (in queueInstance) FreelistMetrics() guard.Metrics { return in.q.FreelistMetrics() }
func (in queueInstance) PoolStats() PoolStats           { return in.q.PoolStats() }

// NewEventInstance builds an event flag whose workload makes pid 0 the
// signaler (alternating Signal/Reset) and every other pid a poller.  The
// event flag has no node pool, so the allocator options are ignored.
func NewEventInstance(f shmem.Factory, n, _ int, mk guard.Maker, _ InstanceOptions) (Instance, error) {
	if n < 2 {
		return nil, fmt.Errorf("apps: event instance needs n >= 2 (a signaler and a poller), got %d", n)
	}
	e, err := NewProtectedEventFlag(f, n, 0, 0, WithMaker(mk))
	if err != nil {
		return nil, err
	}
	return eventInstance{e}, nil
}

type eventInstance struct{ e *EventFlag }

func (in eventInstance) Worker(pid int) (func(i int), error) {
	h, err := in.e.Handle(pid)
	if err != nil {
		return nil, err
	}
	if pid == 0 {
		return func(i int) {
			if i%2 == 0 {
				h.Signal()
			} else {
				h.Reset()
			}
		}, nil
	}
	return func(int) { h.Poll() }, nil
}

func (in eventInstance) Audit() (bool, string) {
	// The flag has no linked structure to damage; missed pulses are a
	// semantic failure the deterministic experiments exhibit instead.
	return false, fmt.Sprintf("flag=%d", in.e.g.Peek(-1))
}

func (in eventInstance) GuardMetrics() guard.Metrics    { return in.e.GuardMetrics() }
func (in eventInstance) FreelistMetrics() guard.Metrics { return guard.Metrics{} }
func (in eventInstance) PoolStats() PoolStats           { return PoolStats{Scheme: "none"} }
