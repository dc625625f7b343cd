package main

import (
	"fmt"

	"abadetect"
	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/kv"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// procs is the number of processes every structure is built for (n): each
// has procs handles.  One worker drives handle 0; see README.md ("One
// worker") for why the benchmark runs no two workers at once.
const procs = 2

// reclaimScheme is the reclaimer of every workload.  Under epoch and
// epoch:auto, where one worker that has not yet moved on holds back every
// retired node, map-churn ran its pool dry and failed 0.2-0.5% of its
// operations in each of three 10 s trial runs per scheme with two workers;
// under hp, which bounds what one worker can hold back, no operation has
// failed.
const reclaimScheme = "hp"

// workload is one closed-loop input set: a worker issues its next operation
// as soon as the previous one returns.
type workload struct {
	name  string
	stack bool // a Treiber stack; otherwise a hash map

	capacity   int
	protection abadetect.Protection // 0 keeps the LL/SC default
	growTo     int                  // WithGrowth ceiling; 0 = fixed capacity
	traceCap   int                  // WithTracing ring size; 0 = recorder off

	keys    int     // key space 1..keys (a power of two when zipfS > 0)
	zipfS   float64 // Zipf exponent of key popularity; 0 = uniform
	prepop  int     // keys 1..prepop (map) or tokens (stack) inserted first
	readPct int     // share of Get / Peek, in percent
	putPct  int     // share of Put (map) or of push+pop (stack); the rest are Deletes

	roundOps int // operations of one measured round, each on a fresh build
	warmOps  int // operations of the warm-up that ends set-up
	// windowOps is the length of a measurement window, about 2 ms of work:
	// a round is timed in windows, and the timing metrics come from the
	// fastest of them.
	windowOps int
	// every is how often the measured run reads the clock: one op in every
	// (a power of two).  map-grow's windows are the shortest in operations,
	// so it times every op to give the fastest windows together enough
	// samples for a 99th percentile.
	every int
}

// workloads are the benchmark's inputs; BENCHMARK.json and README.md say why
// each one is there.  Every structure is sized to stay within one core's
// 2 MiB L2 cache: see README.md ("Sizing choices").
var workloads = []*workload{
	{
		name:     "map-read",
		capacity: 2048, keys: 1024, zipfS: 0.99, prepop: 1024,
		readPct: 90, putPct: 5,
		roundOps: 1 << 18, warmOps: 1 << 16, windowOps: 1 << 14, every: 8,
	},
	{
		name:     "map-churn",
		capacity: 2048, protection: abadetect.ProtectionTagged, keys: 512, prepop: 512,
		readPct: 20, putPct: 40,
		roundOps: 1 << 18, warmOps: 1 << 16, windowOps: 1 << 13, every: 8,
	},
	{
		name:     "map-grow",
		capacity: 32, growTo: 4096, keys: 2048,
		readPct: 40, putPct: 50,
		roundOps: 1 << 12, windowOps: 1 << 11, every: 1,
	},
	{
		name:  "stack-traced",
		stack: true, capacity: 1024, protection: abadetect.ProtectionDetector, traceCap: 4096, prepop: 512,
		readPct: 10, putPct: 90,
		roundOps: 1 << 18, warmOps: 1 << 15, windowOps: 1 << 13, every: 8,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mapOps is the operation set shared by the public and the internal map
// handles; stackOps likewise for the stack.
type mapOps interface {
	Get(k uint64) (uint64, bool)
	Put(k, v uint64) bool
	Delete(k uint64) bool
}

type stackOps interface {
	Push(v uint64) bool
	Pop() (uint64, bool)
	Peek() (uint64, bool)
}

// publicStructure is what the benchmark reads from a public map or stack
// after a run.
type publicStructure interface {
	GuardMetrics() abadetect.GuardMetrics
	Audit() abadetect.StructureAudit
	Footprint() abadetect.Footprint
	StructureTrace() []abadetect.TraceEvent
}

// instance is one built structure with its procs handles.
type instance struct {
	maps   []mapOps
	stacks []stackOps
	pub    publicStructure // nil for internal builds
	probe  *probe          // nil for public builds
	audit  func() structAudit
	before counters // public counters when set-up ended

	// Stack token tallies for the conservation check.
	prepopped, pushed, popped tokens
}

// structAudit is the quiescent check of an instance.
type structAudit struct {
	corrupt bool
	detail  string
	scheme  string // reclaimer
	objects int    // base objects at construction, the paper's m(n)
}

// buildPublic builds w through the public constructors only.
func buildPublic(w *workload) (*instance, error) {
	opts := []abadetect.Option{abadetect.WithReclamation(reclaimScheme)}
	if w.protection != 0 {
		opts = append(opts, abadetect.WithProtection(w.protection))
	}
	if w.growTo > 0 {
		opts = append(opts, abadetect.WithGrowth(w.growTo))
	}
	if w.traceCap > 0 {
		opts = append(opts, abadetect.WithTracing(w.traceCap))
	}
	inst := &instance{}
	if w.stack {
		s, err := abadetect.NewStack(procs, w.capacity, opts...)
		if err != nil {
			return nil, err
		}
		for pid := 0; pid < procs; pid++ {
			h, err := s.Handle(pid)
			if err != nil {
				return nil, err
			}
			inst.stacks = append(inst.stacks, h)
		}
		inst.pub = s
	} else {
		m, err := abadetect.NewMap(procs, w.capacity, opts...)
		if err != nil {
			return nil, err
		}
		for pid := 0; pid < procs; pid++ {
			h, err := m.Handle(pid)
			if err != nil {
				return nil, err
			}
			inst.maps = append(inst.maps, h)
		}
		inst.pub = m
	}
	inst.audit = func() structAudit {
		a := inst.pub.Audit()
		return structAudit{corrupt: a.Corrupt, detail: a.Detail, scheme: a.Reclaimer, objects: inst.pub.Footprint().Objects()}
	}
	return inst, nil
}

// buildInternal builds w the way the public constructors do (structures.go),
// with the guard and reclaimer makers wrapped by p.  Structure words come
// from f and guard words from gf; the reclaimer's come from p.reclaimF when
// set, else from f.
func buildInternal(w *workload, f, gf shmem.Factory, p *probe) (*instance, error) {
	regime := guard.Regime(w.protection)
	if regime == 0 {
		regime = guard.LLSC
	}
	mk, err := registry.NewGuardMaker(gf, procs, registry.GuardSpec{Regime: regime, TagBits: 16})
	if err != nil {
		return nil, err
	}
	rmk, err := registry.NewReclaimMaker(reclaimScheme)
	if err != nil {
		return nil, err
	}
	opts := []apps.StructOption{apps.WithMaker(p.guardMaker(mk)), apps.WithReclaimer(p.reclaimMaker(rmk))}
	if w.traceCap > 0 {
		// ResolveStructOptions wraps the maker in the recorder's guard
		// decorator last, so recording cost falls outside the guard spans.
		opts = append(opts, apps.WithTrace(trace.New(procs, w.traceCap)))
	}
	if w.growTo > 0 {
		opts = append(opts, apps.WithGrowth(w.growTo))
	}
	inst := &instance{probe: p}
	if w.stack {
		s, err := apps.NewStack(f, procs, w.capacity, 0, 0, opts...)
		if err != nil {
			return nil, err
		}
		objects := f.Footprint().Objects()
		for pid := 0; pid < procs; pid++ {
			h, err := s.Handle(pid)
			if err != nil {
				return nil, err
			}
			inst.stacks = append(inst.stacks, h)
		}
		inst.audit = func() structAudit {
			a := s.Audit()
			return structAudit{corrupt: a.Corrupt(), detail: a.String(), scheme: s.PoolStats().Scheme, objects: objects}
		}
		return inst, nil
	}
	m, err := kv.NewMap(f, procs, w.capacity, w.capacity, 0, 0, opts...)
	if err != nil {
		return nil, err
	}
	objects := f.Footprint().Objects()
	for pid := 0; pid < procs; pid++ {
		h, err := m.Handle(pid)
		if err != nil {
			return nil, err
		}
		inst.maps = append(inst.maps, h)
	}
	inst.audit = func() structAudit {
		a := m.Audit()
		return structAudit{corrupt: a.Corrupt(), detail: a.String(), scheme: m.PoolStats().Scheme, objects: objects}
	}
	return inst, nil
}
