package kv

import (
	"fmt"
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
// runs Delete(1); p1 runs ops over key 1 ('g' Get, 'd' Delete).  The runner
// returned has stepped p0 alone through the set-up, so it is poised at p0's
// first Delete step.
func dupWindowRun(t *testing.T, prot Protection, tagBits uint, rc reclaim.Maker, ops string) (*sim.Runner, *Map) {
	t.Helper()
	runner := sim.NewRunner(2)
	var opts []apps.StructOption
	if rc != nil {
		opts = append(opts, apps.WithReclaimer(rc))
	}
	m, err := NewMap(runner.Factory(), 2, 4, 1, prot, tagBits, opts...)
	if err != nil {
		runner.Close()
		t.Fatal(err)
	}
	hs := make([]*Handle, 2)
	for pid := range hs {
		if hs[pid], err = m.Handle(pid); err != nil {
			runner.Close()
			t.Fatal(err)
		}
	}
	ready := false
	progs := []sim.Program{
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
	for pid, prog := range progs {
		if err := runner.SetProgram(pid, prog); err != nil {
			runner.Close()
			t.Fatal(err)
		}
	}
	if err := runner.Start(); err != nil {
		runner.Close()
		t.Fatal(err)
	}
	for !ready {
		if err := runner.Step(0); err != nil {
			runner.Close()
			t.Fatal(err)
		}
	}
	return runner, m
}

// TestMapDeleteDuplicateWindow deletes a binding that has an older live
// duplicate behind it — the window between a Put's insert and its kill —
// while p1 reads (and then deletes) the same key.  p1's operations run as
// one block inserted after every prefix of p0's Delete, the cut right
// after p0's first mark included.  The Delete must kill the shadowed
// duplicate before it marks the binding: marked first, the binding would
// promote the duplicate to first match, and a Get in between would return
// its stale value 9, which no linearization allows.  A Delete reports true
// only when it marked the binding itself, so p1's Delete and p0's cannot
// both succeed.  Whatever the cut, no live node may be left.
func TestMapDeleteDuplicateWindow(t *testing.T) {
	spec := boundMapSpec{k: 1, v: 10}
	for _, tc := range soundConfigs() {
		for _, ops := range []string{"g", "gd"} {
			t.Run(tc.name+"/"+ops, func(t *testing.T) {
				for cut, early := 0, false; !early; cut++ {
					runner, m := dupWindowRun(t, tc.prot, tc.tagBits, tc.rc, ops)
					// p0 takes cut steps, then p1 runs to the end, then p0.
					err := stepFor(runner, 0, cut)
					early = runner.Done(0) // no later cut differs
					if err == nil {
						err = stepFor(runner, 1, -1)
					}
					if err == nil {
						err = stepFor(runner, 0, -1)
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

// stepFor steps pid until it finishes or, when steps >= 0, has taken that
// many steps; a process that runs 10,000 steps without finishing is an
// error.
func stepFor(r *sim.Runner, pid, steps int) error {
	for taken := 0; !r.Done(pid) && taken != steps; taken++ {
		if taken == 10_000 {
			return fmt.Errorf("p%d did not finish", pid)
		}
		if err := r.Step(pid); err != nil {
			return err
		}
	}
	return nil
}
