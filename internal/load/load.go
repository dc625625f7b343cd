// Package load is the traffic layer: an open- and closed-loop load
// generator that drives any registered structure through the apps.Instance
// driver seam and measures per-operation latency, not just throughput.
//
// The ROADMAP's north star is a system serving heavy traffic from millions
// of users, and such traffic is never the benchmark loop's lockstep
// hammering: arrivals cluster (Poisson and bursts), key popularity is
// skewed (Zipf), and the health metric is the latency *distribution* —
// p99/p999, where guard retries, reclamation stalls, and pool exhaustion
// actually surface.  A Profile names one such traffic shape:
//
//   - Closed-loop: each worker issues its next operation immediately; the
//     classic saturation benchmark, latency ≈ service time.
//   - Poisson open-loop: operations are *scheduled* by a memoryless arrival
//     process at a fixed rate, and latency is measured from the scheduled
//     arrival — so a slow operation's queueing delay lands on the ops
//     behind it instead of silently slowing the generator (the
//     coordinated-omission correction).
//   - Bursty open-loop: the same schedule, but arrivals land in groups —
//     the thundering-herd shape that makes bucket-head contention and
//     free-list pressure visible in the tail.
//
// Keyed structures (the hash map) receive the profile's op mix and Zipf key
// choice through the apps.Keyed seam; structures without keys run their
// fixed Instance workload under the same arrival process, so every
// registered structure can be traffic-tested.  Latencies go into per-worker
// log2 histograms (Hist) whose record path is allocation-free — pinned by
// the hot-path guards — and merge into p50/p99/p999 for the E13 tables.
package load

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"abadetect/internal/apps"
)

// Word is the key/value type of keyed workloads.
type Word = apps.Word

// Arrival selects the arrival process of a profile.
type Arrival int

// Arrival processes.
const (
	// Closed is the closed loop: the next op starts when the previous one
	// finishes.
	Closed Arrival = iota
	// Poisson is the open loop with exponential inter-arrival times.
	Poisson
	// Burst is the open loop with arrivals grouped into batches.
	Burst
)

// String names the arrival process.
func (a Arrival) String() string {
	switch a {
	case Closed:
		return "closed"
	case Poisson:
		return "poisson"
	case Burst:
		return "burst"
	default:
		return "unknown"
	}
}

// Policy selects what happens to an open-loop arrival that finds the
// admission queue full (Profile.Queue).
type Policy int

// Admission policies.
const (
	// Shed drops the arrival: it is counted as shed load, never executed,
	// and never recorded in the latency histogram.
	Shed Policy = iota
	// Block pushes the arrival process back: the arrival (and every one
	// after it) is rescheduled so the backlog never exceeds the bound —
	// the offered rate yields instead of the queue growing.
	Block
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Shed:
		return "shed"
	case Block:
		return "block"
	default:
		return "unknown"
	}
}

// Profile is one named traffic shape.
type Profile struct {
	// ID is the stable identifier (the E13 matrix's cell labels end in it).
	ID string
	// Summary is a one-line description for the -list index.
	Summary string
	// Arrival selects the arrival process.
	Arrival Arrival
	// RatePerWorker is the open-loop arrival rate per worker in ops/sec
	// (ignored by Closed).
	RatePerWorker float64
	// BurstSize groups open-loop arrivals into batches (Burst only).
	BurstSize int
	// Workers is the number of driving goroutines (processes).
	Workers int
	// OpsPerWorker is the op count each worker issues.
	OpsPerWorker int
	// Keys is the key-space size of keyed workloads.
	Keys int
	// ZipfS is the Zipf skew exponent; 0 means uniform popularity.
	ZipfS float64
	// GetPct, PutPct, and DeletePct are the keyed op mix in percent; they
	// must sum to 100.
	GetPct, PutPct, DeletePct int
	// Seed makes the generator's choices deterministic per run.
	Seed uint64
	// Queue bounds the open-loop admission backlog, in arrivals per worker;
	// 0 means unbounded (every arrival is admitted however late the worker
	// runs — the coordinated-omission-by-meltdown shape PR5 measured).
	Queue int
	// Policy selects what happens to arrivals past the Queue bound.
	Policy Policy
	// ReadMostly routes the run through the instance's wait-free read
	// workload (apps.ReadMostly) when it offers one: ~90% Peek/Get with a
	// 5%/5% write trickle, the read-scaling shape of E14.  Instances without
	// the seam fall back to their fixed Worker step.
	ReadMostly bool
	// NoPrepopulate skips the keyed warm-up puts.  The growth profiles set
	// it: prepopulating a growable map would perform every resize before the
	// measured run, and the resizes under live traffic are the experiment.
	NoPrepopulate bool
}

// Workload renders the profile as the experiment tables' workload column.
func (p Profile) Workload() string {
	shape := p.Arrival.String()
	if p.Arrival != Closed {
		shape = fmt.Sprintf("%s %.0fk/s", shape, p.RatePerWorker/1000)
		if p.Arrival == Burst {
			shape = fmt.Sprintf("%s x%d", shape, p.BurstSize)
		}
	}
	pop := "uniform"
	if p.ZipfS > 0 {
		pop = fmt.Sprintf("zipf %.2f", p.ZipfS)
	}
	w := fmt.Sprintf("%dw %s, %s, %d/%d/%d", p.Workers, shape, pop, p.GetPct, p.PutPct, p.DeletePct)
	if p.Queue > 0 {
		w = fmt.Sprintf("%s, q%d %s", w, p.Queue, p.Policy)
	}
	if p.ReadMostly {
		w += ", read-mostly"
	}
	return w
}

// Profiles returns the named traffic profiles, the load axis of the E13
// matrix.  Keep the list short: every entry multiplies the matrix.
func Profiles() []Profile {
	return []Profile{
		{
			ID: "steady", Summary: "closed loop, uniform keys, read-heavy 90/5/5",
			Arrival: Closed, Workers: 4, OpsPerWorker: 5000,
			Keys: 64, ZipfS: 0, GetPct: 90, PutPct: 5, DeletePct: 5, Seed: 0x5eed1,
		},
		{
			ID: "read-heavy", Summary: "closed loop on the wait-free read workload: 90% peeks/gets, 5/5 write trickle",
			Arrival: Closed, Workers: 4, OpsPerWorker: 5000,
			Keys: 64, ZipfS: 0, GetPct: 90, PutPct: 5, DeletePct: 5, Seed: 0x5eed7,
			ReadMostly: true,
		},
		{
			ID: "zipf-hot", Summary: "closed loop, zipf-skewed keys (hot-spot contention), 70/20/10",
			Arrival: Closed, Workers: 4, OpsPerWorker: 5000,
			Keys: 64, ZipfS: 1.2, GetPct: 70, PutPct: 20, DeletePct: 10, Seed: 0x5eed2,
		},
		{
			ID: "poisson", Summary: "open loop, Poisson arrivals at 150k ops/s per worker, zipf keys",
			Arrival: Poisson, RatePerWorker: 150_000, Workers: 4, OpsPerWorker: 4000,
			Keys: 64, ZipfS: 1.1, GetPct: 80, PutPct: 10, DeletePct: 10, Seed: 0x5eed3,
		},
		{
			ID: "burst", Summary: "open loop, bursts of 64 arrivals (thundering herd), zipf keys",
			Arrival: Burst, RatePerWorker: 150_000, BurstSize: 64, Workers: 4, OpsPerWorker: 4000,
			Keys: 64, ZipfS: 1.1, GetPct: 80, PutPct: 10, DeletePct: 10, Seed: 0x5eed4,
		},
		{
			ID: "poisson-shed", Summary: "the poisson profile behind a 4-deep admission queue, late arrivals shed",
			Arrival: Poisson, RatePerWorker: 150_000, Workers: 4, OpsPerWorker: 4000,
			Keys: 64, ZipfS: 1.1, GetPct: 80, PutPct: 10, DeletePct: 10, Seed: 0x5eed5,
			Queue: 4, Policy: Shed,
		},
		{
			ID: "burst-block", Summary: "the burst profile behind a 64-deep admission queue, excess arrivals pushed back",
			Arrival: Burst, RatePerWorker: 150_000, BurstSize: 64, Workers: 4, OpsPerWorker: 4000,
			Keys: 64, ZipfS: 1.1, GetPct: 80, PutPct: 10, DeletePct: 10, Seed: 0x5eed6,
			Queue: 64, Policy: Block,
		},
	}
}

// GrowthProfile is the E15 traffic shape: a closed-loop, write-leaning mix
// (40/50/10) over a key space the structure must *grow into* — the put-heavy
// skew keeps the live count climbing through segment-append and
// directory-split thresholds while gets and deletes run concurrently with
// every resize.  It is parameterized rather than registered: the E15 matrix
// sweeps the key space across orders of magnitude, and registering each
// point would multiply the E13 matrix for no new information.
func GrowthProfile(keys, totalOps, workers int) Profile {
	return Profile{
		ID:      fmt.Sprintf("grow-%dk", keys/1000),
		Summary: "closed loop, uniform keys over a growing key space, 40/50/10",
		Arrival: Closed, Workers: workers, OpsPerWorker: totalOps / workers,
		Keys: keys, ZipfS: 0, GetPct: 40, PutPct: 50, DeletePct: 10, Seed: 0x5eed8,
		NoPrepopulate: true,
	}
}

// LookupProfile returns the profile registered under id.
func LookupProfile(id string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.ID == id {
			return p, true
		}
	}
	return Profile{}, false
}

// Result is one load run's measurements.
type Result struct {
	// Ops is the number of operations *admitted and executed*.  Without an
	// admission queue it equals Offered.
	Ops int
	// Offered is the number of scheduled arrivals (Ops + Shed).
	Offered int
	// Shed is the number of arrivals dropped by the Shed policy — reported,
	// never silently lost.
	Shed int
	// Blocked is the number of arrivals the Block policy pushed back
	// (rescheduled, then executed; they are included in Ops).
	Blocked int
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration
	// Latency is the merged latency histogram of *admitted* ops; under the
	// open-loop profiles latency is measured from the scheduled arrival, so
	// queueing delay counts (no coordinated omission).
	Latency Hist
}

// Goodput is the admitted throughput in ops/sec.
func (r Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// rng is a small xorshift64* generator: deterministic, allocation-free, one
// per worker so the sampling path shares nothing.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

// float returns a uniform sample in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfTable is the inverse-CDF sampler for rank popularity 1/r^s: exact,
// precomputed once per run, allocation-free per sample (a binary search).
type zipfTable struct {
	cum []float64 // cum[i] = normalized CDF through rank i
}

func newZipfTable(keys int, s float64) *zipfTable {
	t := &zipfTable{cum: make([]float64, keys)}
	total := 0.0
	for i := 0; i < keys; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		t.cum[i] = total
	}
	for i := range t.cum {
		t.cum[i] /= total
	}
	return t
}

// sample maps a uniform u in [0,1) to a rank in [0, keys).
func (t *zipfTable) sample(u float64) int {
	return sort.SearchFloat64s(t.cum, u)
}

// sampler draws one worker's keyed operations from the profile's mix and
// popularity model.
type sampler struct {
	r        rng
	zipf     *zipfTable // nil = uniform
	keys     uint64
	getCut   uint64                              // next() % 100 below getCut → get
	putCut   uint64                              // ... below putCut → put, else delete
	fallback func(i int)                         // non-keyed step
	keyed    func(op apps.OpKind, key, val Word) // keyed step
}

// step issues the i-th operation.
func (s *sampler) step(i int) {
	if s.keyed == nil {
		s.fallback(i)
		return
	}
	var key Word
	if s.zipf != nil {
		key = Word(s.zipf.sample(s.r.float()))
	} else {
		key = Word(s.r.next() % s.keys)
	}
	switch c := s.r.next() % 100; {
	case c < s.getCut:
		s.keyed(apps.OpGet, key, 0)
	case c < s.putCut:
		s.keyed(apps.OpPut, key, Word(i))
	default:
		s.keyed(apps.OpDelete, key, 0)
	}
}

// Run drives inst with the profile's traffic and returns the merged
// measurements.  Keyed structures are prepopulated (one put per key, until
// the pool declines) so a read-heavy mix measures hits, not an empty map.
func Run(inst apps.Instance, p Profile) (Result, error) {
	if p.Workers < 1 || p.OpsPerWorker < 1 {
		return Result{}, fmt.Errorf("load: profile %q needs workers and ops >= 1", p.ID)
	}
	if p.GetPct+p.PutPct+p.DeletePct != 100 {
		return Result{}, fmt.Errorf("load: profile %q op mix %d/%d/%d does not sum to 100",
			p.ID, p.GetPct, p.PutPct, p.DeletePct)
	}
	if p.Arrival != Closed && p.RatePerWorker <= 0 {
		return Result{}, fmt.Errorf("load: open-loop profile %q needs a positive rate", p.ID)
	}
	if p.Arrival == Burst && p.BurstSize < 1 {
		return Result{}, fmt.Errorf("load: burst profile %q needs a burst size >= 1", p.ID)
	}
	if p.Queue < 0 {
		return Result{}, fmt.Errorf("load: profile %q queue bound must be >= 0, got %d", p.ID, p.Queue)
	}
	if p.Queue > 0 && p.Arrival == Closed {
		return Result{}, fmt.Errorf("load: profile %q: an admission queue needs an open-loop arrival process", p.ID)
	}
	keyed, _ := inst.(apps.Keyed)
	if p.ReadMostly {
		if rm, ok := inst.(apps.ReadMostly); ok {
			// The read-mostly workload replaces the sampler's keyed mix: the
			// instance's own step exercises the wait-free read path directly.
			keyed = nil
			inst = readMostlyInstance{Instance: inst, rm: rm}
		}
	}
	if keyed != nil && p.Keys < 1 {
		return Result{}, fmt.Errorf("load: profile %q needs a key space >= 1 for a keyed structure", p.ID)
	}
	var zipf *zipfTable
	if keyed != nil && p.ZipfS > 0 {
		zipf = newZipfTable(p.Keys, p.ZipfS)
	}

	samplers := make([]*sampler, p.Workers)
	for pid := 0; pid < p.Workers; pid++ {
		s := &sampler{
			r:      rng{s: p.Seed + uint64(pid)*0x9e3779b97f4a7c15 + 1},
			zipf:   zipf,
			keys:   uint64(p.Keys),
			getCut: uint64(p.GetPct),
			putCut: uint64(p.GetPct + p.PutPct),
		}
		if keyed != nil {
			step, err := keyed.KeyedWorker(pid)
			if err != nil {
				return Result{}, err
			}
			s.keyed = step
		} else {
			step, err := inst.Worker(pid)
			if err != nil {
				return Result{}, err
			}
			s.fallback = step
		}
		samplers[pid] = s
	}
	if keyed != nil && !p.NoPrepopulate {
		// Prepopulate through worker 0 so the mix's reads have something to
		// hit; a declined put just means the pool is smaller than the key
		// space, which the run tolerates.
		for k := 0; k < p.Keys; k++ {
			samplers[0].keyed(apps.OpPut, Word(k), Word(k))
		}
	}

	hists := make([]Hist, p.Workers)
	counts := make([]workerCounts, p.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < p.Workers; pid++ {
		wg.Add(1)
		go func(s *sampler, h *Hist, w *workerCounts) {
			defer wg.Done()
			switch p.Arrival {
			case Closed:
				for i := 0; i < p.OpsPerWorker; i++ {
					opStart := time.Now()
					s.step(i)
					h.Record(time.Since(opStart))
				}
				w.ops = p.OpsPerWorker
			default:
				interArrival := float64(time.Second) / p.RatePerWorker
				// The admission bound in time units: an arrival more than
				// `window` behind schedule found Queue arrivals already
				// waiting.
				window := time.Duration(float64(p.Queue) * interArrival)
				target := time.Now()
				for i := 0; i < p.OpsPerWorker; i++ {
					switch p.Arrival {
					case Poisson:
						target = target.Add(time.Duration(s.expSample(interArrival)))
					case Burst:
						if i%p.BurstSize == 0 {
							target = target.Add(time.Duration(interArrival * float64(p.BurstSize)))
						}
					}
					if p.Queue > 0 && time.Since(target) > window {
						if p.Policy == Shed {
							w.shed++
							continue
						}
						// Block: push the arrival process back so the
						// backlog never exceeds the bound; later arrivals
						// inherit the shift through target.
						target = time.Now().Add(-window)
						w.blocked++
					}
					waitUntil(target)
					s.step(i)
					// Open-loop latency counts from the scheduled arrival:
					// delay inherited from a slow predecessor is real latency.
					h.Record(time.Since(target))
					w.ops++
				}
			}
		}(samplers[pid], &hists[pid], &counts[pid])
	}
	wg.Wait()
	res := Result{Elapsed: time.Since(start)}
	for i := range hists {
		res.Latency.Add(&hists[i])
		res.Ops += counts[i].ops
		res.Shed += counts[i].shed
		res.Blocked += counts[i].blocked
	}
	res.Offered = res.Ops + res.Shed
	return res, nil
}

// readMostlyInstance rebinds an instance's Worker to its ReadMostlyWorker so
// the generic driving loops need no second seam.
type readMostlyInstance struct {
	apps.Instance
	rm apps.ReadMostly
}

func (r readMostlyInstance) Worker(pid int) (func(i int), error) {
	return r.rm.ReadMostlyWorker(pid)
}

// RunThroughput drives inst with the profile's worker count and op count in
// a bare closed loop and returns ops and wall-clock only — no per-op clock
// reads, no histogram.  The E14 read-scaling matrix uses it because the
// measured fast path is tens of nanoseconds and two time.Now calls per op
// would be the workload; Run stays the tool when the latency *distribution*
// is the question.
func RunThroughput(inst apps.Instance, p Profile) (Result, error) {
	if p.Workers < 1 || p.OpsPerWorker < 1 {
		return Result{}, fmt.Errorf("load: profile %q needs workers and ops >= 1", p.ID)
	}
	if p.Arrival != Closed {
		return Result{}, fmt.Errorf("load: RunThroughput is closed-loop only; profile %q is %s", p.ID, p.Arrival)
	}
	rm, _ := inst.(apps.ReadMostly)
	steps := make([]func(i int), p.Workers)
	for pid := 0; pid < p.Workers; pid++ {
		var err error
		if p.ReadMostly && rm != nil {
			steps[pid], err = rm.ReadMostlyWorker(pid)
		} else {
			steps[pid], err = inst.Worker(pid)
		}
		if err != nil {
			return Result{}, err
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < p.Workers; pid++ {
		wg.Add(1)
		go func(step func(i int)) {
			defer wg.Done()
			for i := 0; i < p.OpsPerWorker; i++ {
				step(i)
			}
		}(steps[pid])
	}
	wg.Wait()
	res := Result{Elapsed: time.Since(start), Ops: p.Workers * p.OpsPerWorker}
	res.Offered = res.Ops
	return res, nil
}

// workerCounts are one worker's admission counters, padded so neighboring
// workers' counters never share a cache line.
type workerCounts struct {
	ops, shed, blocked int
	_                  [104]byte
}

// spinSlack is the stretch before a scheduled arrival where the worker
// yields instead of sleeping: short enough that the final approach stays
// precise, long enough that the runtime's timer wakes us in time.
const spinSlack = 100 * time.Microsecond

// waitUntil blocks until the scheduled arrival.  Distant arrivals sleep:
// an open-loop worker that busy-spins between arrivals steals the very CPU
// the admitted operations need, and on a small machine that scheduler-
// induced queueing — not the structure — was the whole PR5 tail.  The last
// spinSlack is yielded away so the op still starts close to its schedule.
func waitUntil(target time.Time) {
	for {
		d := time.Until(target)
		if d <= 0 {
			return
		}
		if d > spinSlack {
			time.Sleep(d - spinSlack)
			continue
		}
		runtime.Gosched()
	}
}

// expSample draws an exponential inter-arrival time with the given mean (in
// nanoseconds).
func (s *sampler) expSample(mean float64) float64 {
	u := s.r.float()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(u) * mean
}
