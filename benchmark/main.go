// Command ababench is the repository benchmark.  It runs closed-loop
// workloads against the public abadetect API and prints the end-to-end
// metrics, or with -trace 1 runs the same workloads through the internal
// constructors with decorators at each layer seam and prints the per-layer
// metrics.  See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	// The collector runs only where the benchmark calls it, between set-ups
	// and rounds, so a cycle started by one round's allocations cannot land
	// inside a later round.  Only map-grow allocates inside its rounds; it
	// still pays for the allocations, and heap_mb shows what it keeps.  The
	// limit is a safety net, far above any workload's heap.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(2 << 30)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.  scale multiplies every op count;
// only the smoke test sets it below 1.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	scale   float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ababench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all of them in turn")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 5, "measuring time per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced passes and prints the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ababench: usage: ababench [-workload name] [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "ababench:", err)
			return 2
		}
		todo = []*workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: 1}
	fmt.Fprintln(stdout, machineHeader(cfg))
	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "ababench:", err)
			return 1
		}
		res.print(stdout, w)
		for _, p := range res.Problems {
			fmt.Fprintln(stderr, "ababench: oracle:", p)
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// machineHeader names what the numbers were measured on.
func machineHeader(cfg config) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("# ababench go=%s GOMAXPROCS=%d NumCPU=%d commit=%s seed=%d seconds=%g trace=%v",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, cfg.seed, cfg.seconds, cfg.traced)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run; the JSON fields are the last line printed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Problems []string `json:"-"`
	order    []string // metric names in print order
	notes    map[string]string
}

func (r *result) set(name string, v float64, unit, note string) {
	if r.Metrics == nil {
		r.Metrics, r.notes = map[string]metric{}, map[string]string{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
	r.order = append(r.order, name)
}

func (r *result) print(out io.Writer, w *workload) {
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-14s %-26s %14.6g %-9s", w.name, name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += " " + n
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(out, string(b))
}

func runWorkload(w *workload, cfg config) (*result, error) {
	var z *zipf
	if w.zipfS > 0 {
		z = newZipf(w.keys, w.zipfS)
	}
	budget := int64(cfg.seconds * 1e9)
	if cfg.traced {
		budget /= 2 // the measured and the spans pass share the time
	}
	m, err := runMeasured(w, z, cfg.seed, cfg.scale, budget)
	if err != nil {
		return nil, err
	}
	res := &result{}
	passes := []*pass{m.pass}
	if !cfg.traced {
		endToEnd(res, m)
	} else {
		sp, st, err := runSpans(w, z, cfg.seed, cfg.scale, budget)
		if err != nil {
			return nil, err
		}
		stp, steps, err := runSteps(w, z, cfg.seed, cfg.scale)
		if err != nil {
			return nil, err
		}
		passes = append(passes, sp, stp)
		perLayer(res, m, sp, st, steps, genNsPerOp(w, z, cfg.seed, max(1000, int(float64(1<<20)*cfg.scale))))
		res.Attempted += st.ops + steps.ops
	}
	res.Attempted += m.ops
	for _, p := range passes {
		res.Failed += p.failed
		if p.failed > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %d operations failed", w.name, p.failed))
		}
		if p.bad > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %d reads returned a value written for another key or no valid token", w.name, p.bad))
		}
		res.Problems = append(res.Problems, p.problems...)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// endToEnd fills the metrics a user of the structures sees.  Throughput and
// latency come from the run's quietWindows fastest windows, and set-up time
// is the median of the run's set-ups; README.md ("Noise") says why.
func endToEnd(res *result, m *measuredRun) {
	tput, rd, wr := m.quiet()
	windows := fmt.Sprintf("(fastest %d of %d windows)", len(m.fastest), m.windows)
	reads := fmt.Sprintf("(fastest %d windows: %d of %d samples)", len(m.fastest), rd.n, m.readN)
	writes := fmt.Sprintf("(fastest %d windows: %d of %d samples)", len(m.fastest), wr.n, m.writeN)
	res.set("throughput_ops_s", tput, "ops/s", windows)
	res.set("read_p50_ns", rd.quantile(0.50), "ns", reads)
	res.set("read_p99_ns", rd.quantile(0.99), "ns", reads)
	res.set("write_p50_ns", wr.quantile(0.50), "ns", writes)
	res.set("write_p99_ns", wr.quantile(0.99), "ns", writes)
	res.set("setup_s", median(m.setupS), "s", fmt.Sprintf("(median of %d set-ups)", len(m.setupS)))
	res.set("heap_mb", m.heapMB, "MB", "(live heap of the last structure built)")
}

// perLayer fills the per-layer metrics from the public counters of the
// measured pass, the decorators of the spans pass and the step counters.
func perLayer(res *result, m *measuredRun, sp *pass, st *timedRounds, steps stepCounts, genNs float64) {
	ops := float64(m.ops)
	c := m.counts
	perKop := func(n int64) float64 { return float64(n) * 1000 / ops }
	perBuild := func(n int64) float64 { return float64(n) / float64(m.builds) }

	L, sops := sp.layers, float64(st.ops)
	per := func(n int64) float64 { return float64(n) / sops }
	// A timed interval also holds one clock read, and an interval with
	// timed calls inside it holds two reads per inner call; take them out.
	ck := clockCost()
	guardNs := float64(L.guardNs) - ck*float64(L.guardN)
	releaseNs := float64(L.releaseNs) - ck*float64(L.releaseN)
	reclaimNs := float64(L.reclaimNs) - ck*float64(L.reclaimN) - 2*ck*float64(L.releaseN) - releaseNs
	spanNs := float64(L.spanNs) - ck*float64(L.spanN) - 2*ck*float64(L.guardN+L.reclaimN+L.releaseN)
	sampled := max(1, float64(L.spanN))
	drainYield := 0.0
	if L.drains > 0 {
		drainYield = float64(L.drained) / float64(L.drains)
	}
	failFrac := 0.0
	if c.commits+c.rejected > 0 {
		failFrac = float64(c.rejected) / float64(c.commits+c.rejected)
	}
	sOps := float64(steps.ops)

	res.set("guard.load_per_op", per(L.loads), "calls/op", "")
	res.set("guard.validate_per_op", per(L.validates), "calls/op", "")
	res.set("guard.commit_per_op", per(L.commits), "calls/op", "")
	res.set("guard.store_per_op", per(L.stores), "calls/op", "")
	res.set("guard.ns_per_op", guardNs/sampled, "ns/op", "")
	res.set("guard.steps_per_op", float64(steps.guard)/sOps, "steps/op", "")
	res.set("guard.commit_fail_frac", failFrac, "ratio", "")
	res.set("guard.near_miss_per_kop", perKop(c.nearMisses), "1/kop", "")
	res.set("guard.dirty_load_per_kop", perKop(c.dirtyLoads), "1/kop", "")
	res.set("kv.read_retry_per_kop", perKop(c.readRetries), "1/kop", "")
	res.set("kv.read_fallback_per_kop", perKop(c.readFallbacks), "1/kop", "")
	res.set("kv.splits", perBuild(c.splits), "1/build", "")
	res.set("kv.segment_appends", perBuild(c.appends), "1/build", "")
	res.set("kv.resize_retries", perBuild(c.resizeRetries), "1/build", "")
	res.set("struct.self_ns_per_op", (spanNs-guardNs-reclaimNs-releaseNs)/sampled, "ns/op", "")
	res.set("struct.steps_per_op", float64(steps.structure)/sOps, "steps/op", "")
	res.set("reclaim.protect_per_op", per(L.protects), "calls/op", "")
	res.set("reclaim.clear_per_op", per(L.clears), "calls/op", "")
	res.set("reclaim.retire_per_op", per(L.retires), "calls/op", "")
	res.set("reclaim.drain_per_op", per(L.drains), "calls/op", "")
	res.set("reclaim.drain_yield", drainYield, "nodes/call", "")
	res.set("reclaim.ns_per_op", reclaimNs/sampled, "ns/op", "")
	res.set("reclaim.steps_per_op", float64(steps.reclaim)/sOps, "steps/op", "")
	res.set("reclaim.limbo_nodes", perBuild(c.limbo), "nodes", "")
	res.set("reclaim.stalls_per_kop", perKop(c.stalls), "1/kop", "")
	res.set("reclaim.skipped_scans_per_kop", perKop(c.skippedScans), "1/kop", "")
	res.set("pool.release_per_op", per(L.releases), "calls/op", "")
	res.set("pool.release_ns_per_op", releaseNs/sampled, "ns/op", "")
	res.set("pool.alloc_miss_per_kop", perKop(c.allocMisses), "1/kop", "")
	res.set("pool.exhaustions", perBuild(c.exhaustions), "1/build", "")
	res.set("trace.events_per_op", float64(c.events)/ops, "events/op", "")
	res.set("shmem.steps_per_op", float64(steps.guard+steps.reclaim+steps.structure)/sOps, "steps/op", "")
	res.set("shmem.objects", float64(m.objects), "objects", "")
	res.set("op.span_ns", spanNs/sampled, "ns", fmt.Sprintf("(%d sampled ops; %.1f ns of clock read taken off each timed interval)", L.spanN, ck))
	spansTput, _, _ := st.quiet()
	measuredTput, _, _ := m.quiet()
	res.set("bench.trace_overhead", spansTput/measuredTput, "ratio", "")
	res.set("bench.gen_ns_per_op", genNs, "ns/op", "")
}
