package main

import (
	"cmp"
	"runtime"
	"slices"

	"abadetect/internal/shmem"
)

// counters are the public counters (GuardMetrics, Audit, StructureTrace)
// the benchmark reads from a public build around its measured work.
type counters struct {
	commits, rejected, nearMisses, dirtyLoads int64
	readRetries, readFallbacks                int64
	stalls, skippedScans, allocMisses         int64
	exhaustions                               int64
	splits, appends, resizeRetries            int64
	events                                    int64 // flight-recorder events: the sum of each process's highest Seq
	limbo                                     int64 // nodes retired but not yet freed: a level, not a count
}

func readCounters(s publicStructure) counters {
	g, a := s.GuardMetrics(), s.Audit()
	c := counters{
		commits: g.Commits, rejected: g.Rejected, nearMisses: g.NearMisses, dirtyLoads: g.DirtyLoads,
		readRetries: a.ReadRetries, readFallbacks: a.ReadFallbacks,
		stalls: a.ReclaimStalls, skippedScans: a.SkippedScans, allocMisses: a.AllocPressure,
		exhaustions: a.PoolExhaustions,
		splits:      a.Splits, appends: a.SegmentAppends, resizeRetries: a.ResizeRetries,
		limbo: a.Deferred,
	}
	var top [procs]uint64
	for _, e := range s.StructureTrace() {
		if int(e.Pid) < procs {
			top[e.Pid] = max(top[e.Pid], e.Seq)
		}
	}
	for _, s := range top {
		c.events += int64(s)
	}
	return c
}

// addDelta adds the movement from before to after, and after's limbo level.
func (c *counters) addDelta(after, before counters) {
	c.commits += after.commits - before.commits
	c.rejected += after.rejected - before.rejected
	c.nearMisses += after.nearMisses - before.nearMisses
	c.dirtyLoads += after.dirtyLoads - before.dirtyLoads
	c.readRetries += after.readRetries - before.readRetries
	c.readFallbacks += after.readFallbacks - before.readFallbacks
	c.stalls += after.stalls - before.stalls
	c.skippedScans += after.skippedScans - before.skippedScans
	c.allocMisses += after.allocMisses - before.allocMisses
	c.exhaustions += after.exhaustions - before.exhaustions
	c.splits += after.splits - before.splits
	c.appends += after.appends - before.appends
	c.resizeRetries += after.resizeRetries - before.resizeRetries
	c.events += after.events - before.events
	c.limbo += after.limbo
}

// quietWindows is how many of a pass's fastest windows the timing metrics
// come from; README.md ("Noise") says why.
const quietWindows = 16

// window is one measurement window: its length and, in the measured pass,
// its latency histograms.
type window struct {
	ops         int
	ns          int64
	read, write hist
}

func (w *window) opsPerSec() float64 { return float64(w.ops) / (float64(w.ns) / 1e9) }

// timedRounds is what a pass's rounds measured: totals over every window,
// and the quietWindows fastest windows, fastest first.
type timedRounds struct {
	windows       int
	ops           int64
	readN, writeN uint64 // latency samples over every window
	fastest       []*window
}

// add records a window of ops operations that took ns nanoseconds, with
// the latencies smp sampled in it.
func (t *timedRounds) add(ops int, ns int64, smp *sampler) {
	t.windows++
	t.ops += int64(ops)
	t.readN += smp.read.n
	t.writeN += smp.write.n
	ns = max(ns, 1)
	rate := float64(ops) / (float64(ns) / 1e9)
	if len(t.fastest) == quietWindows && rate <= t.fastest[quietWindows-1].opsPerSec() {
		return
	}
	w := &window{ops: ops, ns: ns, read: smp.read, write: smp.write}
	i, _ := slices.BinarySearchFunc(t.fastest, rate, func(f *window, r float64) int { return cmp.Compare(r, f.opsPerSec()) })
	t.fastest = slices.Insert(t.fastest, i, w)
	t.fastest = t.fastest[:min(len(t.fastest), quietWindows)]
}

// quiet returns the throughput of the fastest windows together and their
// merged latency histograms.
func (t *timedRounds) quiet() (opsPerSec float64, read, write *hist) {
	read, write = new(hist), new(hist)
	var ops, ns int64
	for _, w := range t.fastest {
		ops += int64(w.ops)
		ns += w.ns
		read.merge(&w.read)
		write.merge(&w.write)
	}
	return float64(ops) / (float64(ns) / 1e9), read, write
}

// rounds runs rounds until budget nanoseconds of wall time, set-ups
// included, have passed (at least one round).  Each round sets up a fresh
// instance and runs the workload's op count on it, timed in windows of the
// workload's window size.  Every instance but the last is retired after its
// round; the caller retires the last.  laned makes the sampler feed the
// instance's probe lane instead of the latency histograms.
func (p *pass) rounds(wk *worker, budget int64, every int, laned bool) (*timedRounds, *instance, error) {
	t := &timedRounds{}
	smp := &sampler{}
	ops, win := p.scaled(p.w.roundOps), p.scaled(p.w.windowOps)
	var last *instance
	for start := nanotime(); last == nil || nanotime()-start < budget; {
		if last != nil {
			p.retire(last)
		}
		inst, err := p.setup()
		if err != nil {
			return nil, nil, err
		}
		for done := 0; done < ops; done += win {
			n := min(win, ops-done)
			*smp = sampler{mask: every - 1}
			if laned {
				smp.lane = &inst.probe.lanes[0]
			}
			t0 := nanotime()
			inst.work(wk, n, smp)
			t.add(n, nanotime()-t0, smp)
		}
		last = inst
	}
	p.fold(wk)
	return t, last, nil
}

// measuredRun is the end-to-end pass: public API only, tracing off (except
// where the workload itself turns the flight recorder on).
type measuredRun struct {
	*pass
	*timedRounds
	heapMB  float64
	objects int
}

func runMeasured(w *workload, z *zipf, seed uint64, scale float64, budget int64) (*measuredRun, error) {
	p := &pass{w: w, z: z, seed: seed, scale: scale, build: func() (*instance, error) { return buildPublic(w) }}
	t, last, err := p.rounds(newWorker(w, z, seed, 0), budget, w.every, false)
	if err != nil {
		return nil, err
	}
	objects := last.pub.Footprint().Objects()
	// The structure's heap is the live heap with the last instance less the
	// live heap without it, so the benchmark's own bookkeeping, which grows
	// with the number of rounds, cancels out.
	runtime.GC()
	with := heapAlloc()
	p.retire(last)
	runtime.GC()
	heap := float64(int64(with)-int64(heapAlloc())) / (1 << 20)
	return &measuredRun{pass: p, timedRounds: t, heapMB: heap, objects: objects}, nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runSpans is the traced pass: the internal build with the layer
// decorators, the same worker, one op in spanEvery timed at every seam.
func runSpans(w *workload, z *zipf, seed uint64, scale float64, budget int64) (*pass, *timedRounds, error) {
	p := &pass{w: w, z: z, seed: seed, scale: scale, build: func() (*instance, error) {
		f := shmem.NewNativeFactory()
		return buildInternal(w, f, f, newProbe(procs))
	}}
	t, last, err := p.rounds(newWorker(w, z, seed, 0), budget, spanEvery, true)
	if err != nil {
		return nil, nil, err
	}
	p.retire(last)
	return p, t, nil
}

// stepCounts are the shared-memory steps of the steps pass, by layer.
type stepCounts struct {
	guard, reclaim, structure, ops int64
}

// runSteps counts steps with no warm-up on a fresh build, so the counts
// repeat exactly for a seed.  Each layer counts on its own shmem.Counting.
// Counting adds an atomic add to every step and turns off the structures'
// direct word access, so steps are counted apart from the timed passes.
func runSteps(w *workload, z *zipf, seed uint64, scale float64) (*pass, stepCounts, error) {
	runtime.GC()
	fs := shmem.NewCounting(shmem.NewNativeFactory(), procs)
	fg := shmem.NewCounting(shmem.NewNativeFactory(), procs)
	fr := shmem.NewCounting(shmem.NewNativeFactory(), procs)
	pr := newProbe(procs)
	pr.reclaimF = fr
	p := &pass{w: w, z: z, seed: seed, scale: scale}
	inst, err := buildInternal(w, fs, fg, pr)
	if err != nil {
		return nil, stepCounts{}, err
	}
	if err := prepopulate(w, inst); err != nil {
		return nil, stepCounts{}, err
	}
	fs.Reset()
	fg.Reset()
	fr.Reset()
	wk := newWorker(w, z, seed, 0)
	ops := p.scaled(stepsOps)
	inst.work(wk, ops, nil)
	sc := stepCounts{guard: fg.TotalSteps(), reclaim: fr.TotalSteps(), structure: fs.TotalSteps(), ops: int64(ops)}
	p.fold(wk)
	p.retire(inst)
	return p, sc, nil
}

// genNsPerOp times the operation generator alone.
func genNsPerOp(w *workload, z *zipf, seed uint64, ops int) float64 {
	s := newStream(w, z, seed, 2*procs)
	var sink uint64
	t := nanotime()
	for i := 0; i < ops; i++ {
		op, k := s.next()
		sink += k + uint64(op)
	}
	d := nanotime() - t
	genSink = sink
	return float64(d) / float64(ops)
}

var genSink uint64

// clockCost is the median time between two back-to-back clock reads: what
// one clock read adds to every timed interval.
func clockCost() float64 {
	d := make([]int64, 1001)
	for i := range d {
		t := nanotime()
		d[i] = nanotime() - t
	}
	slices.Sort(d)
	return float64(d[len(d)/2])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
