package main

import (
	"fmt"
	"runtime"
)

const (
	// Map values are key<<valueShift | seq, so every value names its key.
	valueShift = 20
	seqMask    = 1<<valueShift - 1
	// Stack tokens are writer<<tokenShift | seq: writer 1 is the worker and
	// writer procs+1 the prepopulation.
	tokenShift = 40

	spanEvery = 16      // the traced run raises the lane flag for one op in spanEvery
	stepsOps  = 200_000 // operations of the step-counting pass
)

// worker is the generator and running tallies of the one worker that
// drives a pass through handle 0.  It lives across rounds, so its stream
// continues where the previous round stopped.
type worker struct {
	s       *stream
	seq     uint64 // puts or pushes issued
	popNext bool   // stack: the next write is a pop
	failed  int64  // Put or Push that returned false, or Pop on a stack that cannot be empty
	bad     int64  // reads that returned a value the oracle rejects
}

// newWorker draws from stream id of the seed: 0 for measured work, procs
// for the warm-ups.
func newWorker(w *workload, z *zipf, seed uint64, id int) *worker {
	return &worker{s: newStream(w, z, seed, id)}
}

// tokens is a count and a wrapping sum of stack tokens.
type tokens struct{ n, sum uint64 }

func (t *tokens) add(v uint64) { t.n++; t.sum += v }

func (t *tokens) merge(o tokens) { t.n += o.n; t.sum += o.sum }

// sampler times one op in mask+1.  The measured run records the public
// call's latency into read and write; the traced run instead raises its
// lane's flag so the decorators time the layer calls, and records the op
// span into the lane.
type sampler struct {
	mask        int
	read, write hist
	lane        *lane
}

func (s *sampler) record(read bool, ns int64) {
	if s.lane != nil {
		s.lane.timing = false
		s.lane.spanNs += ns
		s.lane.spanN++
		return
	}
	if read {
		s.read.add(ns)
	} else {
		s.write.add(ns)
	}
}

// work runs ops operations of wk against inst's handle 0; smp may be nil.
func (inst *instance) work(wk *worker, ops int, smp *sampler) {
	if inst.stacks != nil {
		inst.stackWork(wk, ops, smp)
	} else {
		mapWork(inst.maps[0], wk, ops, smp)
	}
}

func mapWork(h mapOps, wk *worker, ops int, smp *sampler) {
	for i := 0; i < ops; i++ {
		op, k := wk.s.next()
		timed := smp != nil && i&smp.mask == 0
		var t0 int64
		if timed {
			if smp.lane != nil {
				smp.lane.timing = true
			}
			t0 = nanotime()
		}
		switch op {
		case opRead:
			if v, ok := h.Get(k); ok && v>>valueShift != k {
				wk.bad++
			}
		case opPut:
			wk.seq++
			if !h.Put(k, k<<valueShift|wk.seq&seqMask) {
				wk.failed++
			}
		default:
			h.Delete(k)
		}
		if timed {
			smp.record(op == opRead, nanotime()-t0)
		}
	}
}

// stackWork alternates the writes strictly, push then pop, so the stack's
// depth moves by at most one node; a random push/pop mix would random-walk
// the depth into the pool bound and fail pushes.
func (inst *instance) stackWork(wk *worker, ops int, smp *sampler) {
	h := inst.stacks[0]
	var pushed, popped tokens
	for i := 0; i < ops; i++ {
		op, _ := wk.s.next()
		timed := smp != nil && i&smp.mask == 0
		var t0 int64
		if timed {
			if smp.lane != nil {
				smp.lane.timing = true
			}
			t0 = nanotime()
		}
		switch {
		case op == opRead:
			if v, ok := h.Peek(); !ok || !validToken(v) {
				wk.bad++
			}
		case wk.popNext:
			if v, ok := h.Pop(); ok {
				popped.add(v)
			} else {
				wk.failed++
			}
		default:
			wk.seq++
			tok := uint64(1)<<tokenShift | wk.seq
			if h.Push(tok) {
				pushed.add(tok)
			} else {
				wk.failed++
			}
		}
		if op != opRead {
			wk.popNext = !wk.popNext
		}
		if timed {
			smp.record(op == opRead, nanotime()-t0)
		}
	}
	inst.pushed.merge(pushed)
	inst.popped.merge(popped)
}

func validToken(v uint64) bool {
	writer := v >> tokenShift
	return writer == 1 || writer == procs+1
}

// pass builds instances of one workload, runs rounds on them, and checks
// every instance it retires.
type pass struct {
	w     *workload
	z     *zipf
	seed  uint64
	scale float64
	build func() (*instance, error)

	setupS   []float64
	builds   int
	failed   int64
	bad      int64
	problems []string
	counts   counters // public counter deltas over measured work
	layers   lane     // probe lanes summed over measured work (internal builds)
}

func (p *pass) scaled(n int) int {
	if n == 0 {
		return 0
	}
	return max(1, int(float64(n)*p.scale))
}

// setup builds, prepopulates and warms up a fresh instance, timing all of
// it.  Garbage is collected first, outside the timing.
func (p *pass) setup() (*instance, error) {
	runtime.GC()
	t := nanotime()
	inst, err := p.build()
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", p.w.name, err)
	}
	if err := prepopulate(p.w, inst); err != nil {
		return nil, err
	}
	if n := p.scaled(p.w.warmOps); n > 0 {
		wk := newWorker(p.w, p.z, p.seed, procs)
		inst.work(wk, n, nil)
		p.fold(wk)
	}
	p.setupS = append(p.setupS, float64(nanotime()-t)/1e9)
	if inst.pub != nil {
		inst.before = readCounters(inst.pub)
	}
	if inst.probe != nil {
		inst.probe.reset()
	}
	return inst, nil
}

func (p *pass) fold(wk *worker) {
	p.failed += wk.failed
	p.bad += wk.bad
	wk.failed, wk.bad = 0, 0
}

// prepopulate inserts keys 1..prepop or prepop tokens through handle 0.
func prepopulate(w *workload, inst *instance) error {
	for i := 1; i <= w.prepop; i++ {
		if inst.stacks != nil {
			tok := uint64(procs+1)<<tokenShift | uint64(i)
			if !inst.stacks[0].Push(tok) {
				return fmt.Errorf("%s: prepopulate: push %d failed", w.name, i)
			}
			inst.prepopped.add(tok)
			continue
		}
		k := uint64(i)
		if !inst.maps[0].Put(k, k<<valueShift) {
			return fmt.Errorf("%s: prepopulate: put %d failed", w.name, i)
		}
	}
	return nil
}

// retire reads the counters the measured work moved on inst, then runs the
// oracle, which issues operations of its own.
func (p *pass) retire(inst *instance) {
	if inst.pub != nil {
		p.counts.addDelta(readCounters(inst.pub), inst.before)
	}
	if inst.probe != nil {
		for i := range inst.probe.lanes {
			p.layers.add(&inst.probe.lanes[i])
		}
	}
	p.builds++
	if err := inst.check(p.w); err != nil {
		p.problems = append(p.problems, err.Error())
	}
}

// check is the correctness oracle: every value still in a map names its
// key, a stack holds exactly the tokens pushed and not popped, and the
// structure audit finds no damage.
func (inst *instance) check(w *workload) error {
	if inst.maps != nil {
		h := inst.maps[0]
		for k := uint64(1); k <= uint64(w.keys); k++ {
			if v, ok := h.Get(k); ok && v>>valueShift != k {
				return fmt.Errorf("%s: key %d holds value %#x written for key %d", w.name, k, v, v>>valueShift)
			}
		}
	} else {
		in, out := inst.prepopped, inst.popped
		in.merge(inst.pushed)
		for {
			v, ok := inst.stacks[0].Pop()
			if !ok {
				break
			}
			out.add(v)
		}
		if in != out {
			return fmt.Errorf("%s: token conservation broken: pushed %d (sum %#x), popped and drained %d (sum %#x)", w.name, in.n, in.sum, out.n, out.sum)
		}
	}
	if a := inst.audit(); a.corrupt {
		return fmt.Errorf("%s: audit found corruption: %s", w.name, a.detail)
	}
	return nil
}
