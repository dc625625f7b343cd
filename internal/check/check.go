// Package check verifies concurrent histories against sequential
// specifications.
//
// The main entry point is Linearizable, a Wing-Gong/Lowe-style backtracking
// checker with memoization: given a history of operations (invocation and
// response timestamps plus recorded return values) and a sequential
// specification, it decides whether some linearization order explains the
// recorded returns.  Histories are produced by the deterministic simulator
// (package sim); sequential specifications for the paper's objects —
// ABA-detecting registers and LL/SC/VL objects — live in spec.go.
package check

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"abadetect/internal/sim"
)

// Op is one operation of a history.
type Op struct {
	// Pid is the invoking process.
	Pid int
	// Method is the operation name, e.g. "DWrite", "DRead", "LL", "SC", "VL".
	Method string
	// Args are the invocation arguments.
	Args []uint64
	// Rets are the recorded response values.
	Rets []uint64
	// Inv and Res are the logical invocation and response times.
	Inv, Res int
	// Pending marks an operation that was invoked but never responded
	// (e.g. its process crashed).  A pending operation may linearize at any
	// point after its invocation — taking effect with unknown return values
	// — or not have taken effect at all; the checker explores both.  Res is
	// ignored for pending ops.
	Pending bool
}

// String renders the op for witnesses and error messages.
func (o Op) String() string {
	args := make([]string, len(o.Args))
	for i, a := range o.Args {
		args[i] = strconv.FormatUint(a, 10)
	}
	rets := make([]string, len(o.Rets))
	for i, r := range o.Rets {
		rets[i] = strconv.FormatUint(r, 10)
	}
	return fmt.Sprintf("p%d.%s(%s) -> (%s) @[%d,%d]",
		o.Pid, o.Method, strings.Join(args, ","), strings.Join(rets, ","), o.Inv, o.Res)
}

// PairOps converts a recorded event history into operations, matching each
// Invoke with the next Return of the same process.  Invocations without a
// response (e.g. from crashed or aborted processes) are returned separately
// with Pending set.
func PairOps(events []sim.Event) (ops, pending []Op, err error) {
	open := map[int]*Op{}
	for _, e := range events {
		switch e.Kind {
		case sim.Invoke:
			if open[e.Pid] != nil {
				return nil, nil, fmt.Errorf("check: process %d invoked %q while %q is pending",
					e.Pid, e.Method, open[e.Pid].Method)
			}
			op := &Op{Pid: e.Pid, Method: e.Method, Inv: e.Time}
			op.Args = append(op.Args, e.Args...)
			open[e.Pid] = op
		case sim.Return:
			op := open[e.Pid]
			if op == nil {
				return nil, nil, fmt.Errorf("check: process %d returned without invocation", e.Pid)
			}
			op.Rets = append(op.Rets, e.Rets...)
			op.Res = e.Time
			ops = append(ops, *op)
			open[e.Pid] = nil
		default:
			return nil, nil, fmt.Errorf("check: unknown event kind %d", e.Kind)
		}
	}
	for _, op := range open {
		if op != nil {
			op.Pending = true
			pending = append(pending, *op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Inv < ops[j].Inv })
	sort.Slice(pending, func(i, j int) bool { return pending[i].Inv < pending[j].Inv })
	return ops, pending, nil
}

// State is an abstract sequential-specification state.
type State interface {
	// Apply attempts op against the state.  It returns the successor state
	// and whether op (with its recorded return values) is legal here.
	// Implementations must not mutate the receiver.
	Apply(op Op) (State, bool)
	// Key returns a canonical encoding of the state for memoization.
	Key() string
}

// Spec is a sequential specification.
type Spec interface {
	// Initial returns the specification's initial state.
	Initial() State
}

// Result is the outcome of a linearizability check.
type Result struct {
	// Ok reports whether the history is linearizable.
	Ok bool
	// Witness, when Ok, is a legal linearization order (indices into the
	// checked op slice).
	Witness []int
	// StatesExplored counts memoized search states, as a cost metric.
	StatesExplored int
}

// Linearizable decides whether ops (a concurrent history, possibly
// containing Pending operations) is linearizable with respect to spec.
// A pending op may be linearized anywhere after its invocation or omitted
// entirely; completed ops must all be linearized.
//
// The search is exponential in the worst case; histories of up to a few
// dozen concurrent operations are fine.  Timestamps must be unique, as
// produced by sim.Runner.
func Linearizable(spec Spec, ops []Op) Result {
	n := len(ops)
	if n == 0 {
		return Result{Ok: true}
	}
	if n > 64*4 {
		// Keep the bitset bounded; callers should check windows.
		panic(fmt.Sprintf("check: history of %d ops too large", n))
	}

	const infRes = int(^uint(0) >> 1)
	sorted := make([]Op, n)
	copy(sorted, ops)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Inv < sorted[j].Inv })
	complete := 0
	for i := range sorted {
		if sorted[i].Pending {
			sorted[i].Res = infRes
		} else {
			complete++
		}
	}

	type frame struct {
		done  bitset
		state State
	}
	failed := map[string]bool{}
	explored := 0

	allCompleteDone := func(done bitset) bool {
		for i := 0; i < n; i++ {
			if !sorted[i].Pending && !done.has(i) {
				return false
			}
		}
		return true
	}

	var order []int
	var dfs func(f frame) bool
	dfs = func(f frame) bool {
		if allCompleteDone(f.done) {
			return true
		}
		key := f.done.key() + "|" + f.state.Key()
		if failed[key] {
			return false
		}
		explored++
		// minRes1: the smallest response time among unlinearized ops;
		// minRes2: the second smallest.  Op i may linearize next iff no
		// other unlinearized op responded before i was invoked.  Pending
		// ops never block anyone (infinite response time).
		minRes1, minRes2, argmin := infRes, infRes, -1
		for i := 0; i < n; i++ {
			if f.done.has(i) {
				continue
			}
			if sorted[i].Res < minRes1 {
				minRes2 = minRes1
				minRes1, argmin = sorted[i].Res, i
			} else if sorted[i].Res < minRes2 {
				minRes2 = sorted[i].Res
			}
		}
		for i := 0; i < n; i++ {
			if f.done.has(i) {
				continue
			}
			bound := minRes1
			if i == argmin {
				bound = minRes2
			}
			if sorted[i].Inv > bound {
				continue // some other unlinearized op responded before i began
			}
			next, ok := f.state.Apply(sorted[i])
			if !ok {
				continue
			}
			if dfs(frame{done: f.done.with(i), state: next}) {
				order = append(order, i)
				return true
			}
		}
		failed[key] = true
		return false
	}

	ok := dfs(frame{done: newBitset(n), state: spec.Initial()})
	if !ok {
		return Result{Ok: false, StatesExplored: explored}
	}
	// order was built in reverse during unwinding.
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return Result{Ok: true, Witness: order, StatesExplored: explored}
}

// bitset tracks linearized ops (up to 256).
type bitset struct {
	w [4]uint64
	n int
}

func newBitset(n int) bitset { return bitset{n: n} }

func (b bitset) has(i int) bool { return b.w[i/64]>>(uint(i)%64)&1 == 1 }

func (b bitset) with(i int) bitset {
	b.w[i/64] |= 1 << (uint(i) % 64)
	return b
}

func (b bitset) count() int {
	c := 0
	for i := 0; i < b.n; i++ {
		if b.has(i) {
			c++
		}
	}
	return c
}

func (b bitset) key() string {
	return fmt.Sprintf("%x.%x.%x.%x", b.w[0], b.w[1], b.w[2], b.w[3])
}
