package kv

import (
	"fmt"
	"sort"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/check"
	"abadetect/internal/reclaim"
	"abadetect/internal/sim"
)

// boolWord encodes a bool return value for the recorded history.
func boolWord(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// mapWorkloadRun builds a simulated run of a map workload and returns the
// runner.  ops[pid] is a string over 'p' (put key), 'q' (put the other
// key), 'g' (get key), 'd' (delete key) — two keys that collide into the
// single bucket, so every schedule contends on one chain.
func mapWorkloadRun(t *testing.T, ops []string) *sim.Runner {
	t.Helper()
	n := len(ops)
	runner := sim.NewRunner(n)
	m, err := NewMap(runner.Factory(), n, 8, 1, apps.LLSC, 0)
	if err != nil {
		runner.Close()
		t.Fatal(err)
	}
	for pid := range ops {
		pid := pid
		seq := ops[pid]
		err := runner.SetProgram(pid, func(p *sim.Proc) {
			h, herr := m.Handle(pid)
			if herr != nil {
				panic(herr)
			}
			for i, c := range seq {
				v := Word(pid*100 + i)
				switch c {
				case 'p':
					p.Invoke("Put", 1, v)
					ok := h.Put(1, v)
					p.Return(boolWord(ok))
				case 'q':
					p.Invoke("Put", 2, v)
					ok := h.Put(2, v)
					p.Return(boolWord(ok))
				case 'g':
					p.Invoke("Get", 1)
					got, ok := h.Get(1)
					p.Return(got, boolWord(ok))
				case 'd':
					p.Invoke("Delete", 1)
					ok := h.Delete(1)
					p.Return(boolWord(ok))
				}
			}
		})
		if err != nil {
			runner.Close()
			t.Fatal(err)
		}
	}
	if err := runner.Start(); err != nil {
		runner.Close()
		t.Fatal(err)
	}
	return runner
}

func TestMapLinearizableUnderRandomSchedules(t *testing.T) {
	ops := []string{"pgd", "pg", "dgq"}
	for seed := int64(0); seed < 150; seed++ {
		runner := mapWorkloadRun(t, ops)
		if _, err := runner.Run(sim.NewRandom(9000+seed), 200000); err != nil {
			t.Fatal(err)
		}
		if !runner.AllDone() {
			t.Fatal("run did not finish")
		}
		hist, pending, err := check.PairOps(runner.History())
		runner.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) != 0 {
			t.Fatalf("seed %d: %d pending ops", seed, len(pending))
		}
		res := check.Linearizable(check.MapSpec{}, hist)
		if !res.Ok {
			var lines string
			for _, op := range hist {
				lines += fmt.Sprintf("  %s\n", op)
			}
			t.Fatalf("seed %d: map history not linearizable:\n%s", seed, lines)
		}
	}
}

func TestMapTinyWorkloadManySeeds(t *testing.T) {
	// The map's help-and-restart traversals make full schedule enumeration
	// explode (on this one-bucket LL/SC map a Put into the empty run takes
	// about 15 steps, and about 26 when it kills the binding it shadows),
	// so the tiny workload gets a dense random sample, like the queue's.
	for seed := int64(0); seed < 400; seed++ {
		runner := mapWorkloadRun(t, []string{"p", "d"})
		if _, err := runner.Run(sim.NewRandom(51000+seed), 200000); err != nil {
			t.Fatal(err)
		}
		hist, _, err := check.PairOps(runner.History())
		runner.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res := check.Linearizable(check.MapSpec{}, hist); !res.Ok {
			t.Fatalf("seed %d: map history not linearizable", seed)
		}
	}
}

// boundMapSpec is check.MapSpec started from the one binding k=v: the
// set-up that builds it is not part of the checked history.
type boundMapSpec struct{ k, v Word }

func (s boundMapSpec) Initial() check.State {
	st, _ := check.MapSpec{}.Initial().Apply(check.Op{Method: "Put", Args: []Word{s.k, s.v}, Rets: []Word{1}})
	return st
}

// dupWindowRun builds on the simulator the state a Put leaves when it is
// preempted between its insert and its kill (linkStaleDuplicate): in a
// one-bucket map, the binding of key 1 (value 10) with an older live node
// of key 1 (value 9) directly behind it.  p0 builds that state and then
// deletes key 1; p1 runs ops over key 1 ('g' Get, 'd' Delete).  The runner
// returned has stepped p0 alone through the set-up, so it is poised at p0's
// first delete step.
func dupWindowRun(t *testing.T, prot Protection, tagBits uint, rc reclaim.Maker, ops string) (*sim.Runner, *Map) {
	t.Helper()
	ready := false
	runner, m := simMap(t, prot, tagBits, rc, 4, 2, func(hs []*Handle) []sim.Program {
		return []sim.Program{
			func(p *sim.Proc) {
				if !hs[0].Put(1, 10) {
					panic("set-up Put failed")
				}
				linkStaleDuplicate(hs[0], 1, 9)
				ready = true
				p.Invoke("Delete", 1)
				p.Return(boolWord(hs[0].Delete(1)))
			},
			func(p *sim.Proc) {
				for _, c := range ops {
					switch c {
					case 'g':
						p.Invoke("Get", 1)
						v, ok := hs[1].Get(1)
						p.Return(v, boolWord(ok))
					case 'd':
						p.Invoke("Delete", 1)
						p.Return(boolWord(hs[1].Delete(1)))
					}
				}
			},
		}
	})
	if _, err := runner.StepUntil(0, sweepLimit, func(int) bool { return ready }); err != nil {
		runner.Close()
		t.Fatal(err)
	}
	return runner, m
}

// bindingMarked reports, by Observer reads of a one-bucket map, whether the
// first node of key k on the list has a marked link: k's binding is
// logically deleted, and its deleter has not unlinked it yet.
func bindingMarked(m *Map, k Word) bool {
	i := linkIdx(m.heads.Get(0).Peek(sim.Observer))
	for hops := 0; i != 0 && i <= m.maxCap && hops <= m.maxCap; hops++ {
		w := m.node(i).next.Peek(sim.Observer)
		if m.node(i).key.Read(sim.Observer) == k {
			return linkMarked(w)
		}
		i = linkIdx(w)
	}
	return false
}

// TestMapDeleteDuplicateWindow deletes a binding that has an older live
// duplicate behind it — the window between a Put's insert and its kill —
// while p1 reads (and then deletes) the same key.  p1's operations run as
// one block inserted after every prefix of p0's delete.  The split inputs
// play one cut instead: p0's Delete split at its linearization point, the
// mark of the binding, found by an Observer read rather than a step count.
// The delete must kill the shadowed duplicate before it marks the binding:
// marked first, the binding would promote the duplicate to first match, and
// a Get in between would return its stale value 9, which no linearization
// allows.  A delete reports true only when it marked the binding itself, so
// p1's Delete and p0's cannot both succeed.  Whatever the cut, no live node
// may be left.
func TestMapDeleteDuplicateWindow(t *testing.T) {
	spec := boundMapSpec{k: 1, v: 10}
	for _, tc := range soundConfigs() {
		for _, in := range []struct {
			name  string
			split bool
			ops   string
		}{{"g", false, "g"}, {"gd", false, "gd"}, {"split-g", true, "g"}, {"split-gd", true, "gd"}} {
			t.Run(tc.name+"/"+in.name, func(t *testing.T) {
				for cut, early := 0, false; !early; cut++ {
					runner, m := dupWindowRun(t, tc.prot, tc.tagBits, tc.rc, in.ops)
					// p0 takes cut steps, or runs until the binding reads
					// marked; then p1 runs to the end, then p0.
					stop := func(taken int) bool { return taken == cut }
					if in.split {
						stop = func(int) bool { return bindingMarked(m, 1) }
					}
					var err error
					early, err = playStop(runner, 0, stop, 1, 0)
					if in.split {
						if err == nil && early {
							err = fmt.Errorf("p0's Delete ended before its binding read marked")
						}
						early = true
					}
					hist, pending, perr := check.PairOps(runner.History())
					runner.Close()
					if err != nil || perr != nil || len(pending) != 0 {
						t.Fatalf("cut %d: %v, pairing the history: %v, %d pending", cut, err, perr, len(pending))
					}
					if res := check.Linearizable(spec, hist); !res.Ok {
						var lines string
						for _, op := range hist {
							lines += fmt.Sprintf("  %s\n", op)
						}
						t.Fatalf("cut %d: history not linearizable from 1=10:\n%s", cut, lines)
					}
					if a := m.Audit(); a.Corrupt() || a.Live != 0 {
						t.Fatalf("cut %d: audit at the end: %s", cut, a)
					}
				}
			})
		}
	}
}

// TestMapSplitDeleteDroppedByOtherOp splits p0's Delete(1) at its mark, in
// a one-bucket map holding only key 1, and runs one other operation on p1
// in the window between the mark and p0's unlink, under every regime and
// reclaimer: a Get(1), which must miss; a Put(2, 20); or a Get(1) and a
// Delete(1), which must report false, since it only helps unlink the node
// p0 killed.  The Put's and the Delete's walks unlink the marked node
// themselves and so drop p0's pending unlink: p0's commit through its stale
// predecessor link must fail rather than retire the node a second time.
// Then p0 resumes and its Delete reports true, and the audit is clean with
// only p1's binding, if any, live.
func TestMapSplitDeleteDroppedByOtherOp(t *testing.T) {
	for _, p := range []struct {
		name string
		prot Protection
	}{{"raw", apps.Raw}, {"tag16", apps.Tagged}, {"llsc", apps.LLSC}, {"detector", apps.Detector}} {
		for _, r := range []struct {
			name string
			mk   reclaim.Maker
		}{{"none", reclaim.NewNone}, {"hp", reclaim.NewHazard}, {"epoch", reclaim.NewEpoch}} {
			for _, op := range []struct {
				name string
				run  func(h *Handle)
				live int
			}{
				{"get", getMisses, 0},
				{"put", func(h *Handle) {
					if !h.Put(2, 20) {
						panic("Put(2) failed")
					}
				}, 1},
				{"delete", func(h *Handle) {
					getMisses(h)
					if h.Delete(1) {
						panic("a helping Delete(1) claimed the kill it only helped unlink")
					}
				}, 0},
			} {
				t.Run(p.name+"+"+r.name+"/"+op.name, func(t *testing.T) {
					var ready, deleted bool
					runner, m := simMap(t, p.prot, 16, r.mk, 4, 2, func(hs []*Handle) []sim.Program {
						return []sim.Program{
							func(*sim.Proc) {
								if !hs[0].Put(1, 10) {
									panic("set-up Put failed")
								}
								ready = true
								deleted = hs[0].Delete(1)
							},
							func(*sim.Proc) { op.run(hs[1]) },
						}
					})
					defer runner.Close()
					// p0's set-up, p0 until key 1 reads marked, p1's
					// operation, and p0's resumed unlink.
					_, err := runner.StepUntil(0, sweepLimit, func(int) bool { return ready })
					if err == nil {
						_, err = runner.StepUntil(0, sweepLimit, func(int) bool { return bindingMarked(m, 1) })
					}
					if err == nil && runner.Done(0) {
						err = fmt.Errorf("Delete(1) ended without a window at its mark")
					}
					if err == nil {
						_, err = playStop(runner, 1, nil, 0)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !deleted {
						t.Error("Delete(1) reported no binding after marking it")
					}
					if a := m.Audit(); a.Corrupt() || a.Live != op.live {
						t.Errorf("audit: %s, want clean with %d live", a, op.live)
					}
				})
			}
		}
	}
}

// getMisses runs Get(1) and panics unless it misses.
func getMisses(h *Handle) {
	if v, ok := h.Get(1); ok {
		panic(fmt.Sprintf("Get(1) = (%d, true) after the binding was marked", v))
	}
}

// TestMapSeekRestartsAtMarkedPredecessor sweeps the window between a
// walk's helped unlink and its re-load of the predecessor link.  In a
// one-bucket map holding a and b (list order a, b, c), p2's Delete(b) is
// stopped once it has marked b, and never resumed.  p0's Put(c) walks past
// a, helps unlink b through a's link and re-loads that link; then p0 reads
// c back.  p1's Delete(a) runs after every prefix of p0's program.  Run
// inside the window, the Delete marks a and unlinks it, so the re-loaded
// link is marked: a walk that continued from a would link c behind a node
// already off the list, clearing its mark, and c would be lost.  Every
// history must be linearizable from a's binding, and c must be the one live
// node left.
func TestMapSeekRestartsAtMarkedPredecessor(t *testing.T) {
	ks := []Word{1, 2, 3}
	sort.Slice(ks, func(i, j int) bool { return after(sortKeyData(ks[j]), sortKeyData(ks[i])) })
	a, b, c := ks[0], ks[1], ks[2]
	spec := boundMapSpec{k: a, v: 10}
	for _, tc := range soundConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			for cut, early := 0, false; !early; cut++ {
				runner, m := simMap(t, tc.prot, tc.tagBits, tc.rc, 4, 3, func(hs []*Handle) []sim.Program {
					return []sim.Program{
						func(p *sim.Proc) {
							p.Invoke("Put", c, 30)
							p.Return(boolWord(hs[0].Put(c, 30)))
							p.Invoke("Get", c)
							v, ok := hs[0].Get(c)
							p.Return(v, boolWord(ok))
						},
						func(p *sim.Proc) {
							p.Invoke("Delete", a)
							p.Return(boolWord(hs[1].Delete(a)))
						},
						func(*sim.Proc) {
							if !hs[2].Put(a, 10) || !hs[2].Put(b, 20) {
								panic("set-up Put failed")
							}
							hs[2].Delete(b)
						},
					}
				})
				// p2's set-up, stopped once b reads marked and never resumed;
				// then p0 takes cut steps, p1 runs, and p0 ends.
				_, err := runner.StepUntil(2, sweepLimit, func(int) bool { return bindingMarked(m, b) })
				if err == nil && runner.Done(2) {
					err = fmt.Errorf("Delete(b) ended without a window at its mark")
				}
				if err == nil {
					early, err = playCut(runner, 0, cut, 1, 0)
				}
				hist, pending, perr := check.PairOps(runner.History())
				runner.Close()
				if err != nil || perr != nil || len(pending) != 0 {
					t.Fatalf("cut %d: %v, pairing the history: %v, %d pending", cut, err, perr, len(pending))
				}
				if res := check.Linearizable(spec, hist); !res.Ok {
					var lines string
					for _, op := range hist {
						lines += fmt.Sprintf("  %s\n", op)
					}
					t.Fatalf("cut %d: history not linearizable from %d=10:\n%s", cut, a, lines)
				}
				if au := m.Audit(); au.Corrupt() || au.Live != 1 {
					t.Fatalf("cut %d: audit at the end: %s", cut, au)
				}
			}
		})
	}
}

// simMap builds a one-bucket map of the given capacity for n processes on a
// fresh runner, makes one handle per process, and starts the programs that
// progs returns for those handles.
func simMap(t *testing.T, prot Protection, tagBits uint, rc reclaim.Maker, capacity, n int, progs func(hs []*Handle) []sim.Program) (*sim.Runner, *Map) {
	t.Helper()
	runner := sim.NewRunner(n)
	var opts []apps.StructOption
	if rc != nil {
		opts = append(opts, apps.WithReclaimer(rc))
	}
	m, err := NewMap(runner.Factory(), n, capacity, 1, prot, tagBits, opts...)
	if err != nil {
		runner.Close()
		t.Fatal(err)
	}
	hs := make([]*Handle, n)
	for pid := range hs {
		if hs[pid], err = m.Handle(pid); err != nil {
			runner.Close()
			t.Fatal(err)
		}
	}
	for pid, prog := range progs(hs) {
		if err = runner.SetProgram(pid, prog); err != nil {
			break
		}
	}
	if err == nil {
		err = runner.Start()
	}
	if err != nil {
		runner.Close()
		t.Fatal(err)
	}
	return runner, m
}

// sweepLimit bounds every leg of a cut sweep's schedule.
const sweepLimit = 10_000

// playCut plays one cut of a sweep on a started runner: process cut takes
// exactly steps steps (fewer if it finishes), then each process of then runs
// to its end, in order.  It reports whether cut had finished within its
// steps, after which no later cut differs.
func playCut(r *sim.Runner, cut, steps int, then ...int) (bool, error) {
	return playStop(r, cut, func(taken int) bool { return taken == steps }, then...)
}

// playStop is playCut with the cut given as a sim.Runner.StepUntil stop
// predicate: process cut runs until stop holds or it finishes.
func playStop(r *sim.Runner, cut int, stop func(taken int) bool, then ...int) (bool, error) {
	if _, err := r.StepUntil(cut, sweepLimit, stop); err != nil {
		return false, err
	}
	finished := r.Done(cut)
	for _, pid := range then {
		if _, err := r.StepUntil(pid, sweepLimit, nil); err != nil {
			return finished, err
		}
	}
	return finished, nil
}
