package jaaru_test

// Equivalence suite for the partial-order-reduction layer: eliding
// single-valued read-from choices and pruning fingerprint-equivalent failure
// scenarios must not change the reachable behaviours or the bugs found. For
// the litmus suite, the example programs and representative RECIPE/PMDK
// workloads (including seeded-bug variants), a default run (POR on) must
// reach the same observation set, the same bug set, the same failure-point
// count and the same logical scenario count as a -por=false reference run —
// serially, with Workers=4, and with the snapshot engine on or off.
//
// Deliberately NOT compared: RFChoicePoints, MaxRFCandidates and per-bug
// Choices vectors — elision removes choice points, so those counters
// legitimately shrink. Scenario counts may shrink too (same-value read-from
// elision removes whole redundant branches; the fingerprint sweep, by
// contrast, preserves logical counts exactly), so the suite asserts
// Scenarios never GROWS under POR, not equality.

import (
	"fmt"
	"sort"
	"testing"

	"jaaru"
	"jaaru/internal/core"
	"jaaru/internal/litmus"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
	"jaaru/internal/yat"
)

// porOff returns opts with the whole POR layer disabled (the reference
// exhaustive run).
func porOff(opts jaaru.Options) jaaru.Options {
	opts.POR = -1
	return opts
}

// bugKeys projects a result's bugs onto their identity keys, sorted: the
// pruning layer must preserve which bugs exist, though scenario elision may
// change per-bug counts and witness choice vectors.
func bugKeys(res *jaaru.Result) []string {
	keys := make([]string, 0, len(res.Bugs))
	for _, b := range res.Bugs {
		keys = append(keys, b.Type.String()+"|"+b.Message)
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertPOREquivalent checks the POR-invariant slice of two results: failure
// points, completeness, the bug key set, and that pruning never invents
// scenarios.
func assertPOREquivalent(t *testing.T, label string, off, on *jaaru.Result) {
	t.Helper()
	if on.Scenarios > off.Scenarios {
		t.Errorf("%s: Scenarios grew under POR: %d off, %d on",
			label, off.Scenarios, on.Scenarios)
	}
	if off.FailurePoints != on.FailurePoints {
		t.Errorf("%s: FailurePoints = %d off, %d on", label, off.FailurePoints, on.FailurePoints)
	}
	if off.Complete != on.Complete {
		t.Errorf("%s: Complete = %v off, %v on", label, off.Complete, on.Complete)
	}
	if ok, on := bugKeys(off), bugKeys(on); !sameKeys(ok, on) {
		t.Errorf("%s: bug sets differ:\n  off: %v\n  on:  %v", label, ok, on)
	}
}

// TestPOREquivalenceLitmus: the entire litmus suite, POR off vs on, results
// and recovery observation sets both. The litmus obs callbacks are
// program-level closures the checker never sees, so the POR layer stays
// fully active here.
func TestPOREquivalenceLitmus(t *testing.T) {
	for _, tst := range litmus.Tests() {
		t.Run(tst.Name, func(t *testing.T) {
			offObs, onObs := newSyncObs(), newSyncObs()
			off := core.New(tst.Prog(offObs.add), porOff(tst.Opts)).Run()
			on := core.New(tst.Prog(onObs.add), tst.Opts).Run()

			assertPOREquivalent(t, tst.Name, off, on)
			if !offObs.equal(onObs) {
				t.Errorf("observation sets differ:\n  off: %v\n  on:  %v",
					offObs.seen, onObs.seen)
			}
		})
	}
}

// TestPOREquivalenceExamples: the commitstore variants and walkv, serial and
// parallel, including the observation-set comparison for walkv's wide
// recovery tree.
func TestPOREquivalenceExamples(t *testing.T) {
	for _, workers := range []int{1, equivalenceWorkers} {
		for _, flushData := range []bool{true, false} {
			name := fmt.Sprintf("commitstore/flush=%v/workers=%d", flushData, workers)
			t.Run(name, func(t *testing.T) {
				opts := jaaru.Options{FlagMultiRF: true, Workers: workers}
				off := jaaru.Check(commitstoreProgram(flushData), porOff(opts))
				on := jaaru.Check(commitstoreProgram(flushData), opts)
				assertPOREquivalent(t, name, off, on)
			})
		}
		t.Run(fmt.Sprintf("walkv/workers=%d", workers), func(t *testing.T) {
			offObs, onObs := newSyncObs(), newSyncObs()
			opts := jaaru.Options{Workers: workers}
			off := jaaru.Check(walkvProgram(offObs.add), porOff(opts))
			on := jaaru.Check(walkvProgram(onObs.add), opts)
			assertPOREquivalent(t, "walkv", off, on)
			if !offObs.equal(onObs) {
				t.Errorf("recovered log states differ:\n  off: %v\n  on:  %v",
					offObs.seen, onObs.seen)
			}
		})
	}
}

// TestPOREquivalenceWorkloads: insert- and update-style RECIPE structures
// and a PMDK example, POR off vs on crossed with snapshots off vs on, serial
// and parallel. The update workloads must actually exercise the pruning
// sweep (ScenariosPruned > 0 in the serial snapshot-on run), or the
// equivalence claim would be vacuous there.
func TestPOREquivalenceWorkloads(t *testing.T) {
	progs := []struct {
		prog   core.Program
		prunes bool // update-style: recurring states the sweep must prune
	}{
		{recipe.CCEHWorkload(6, recipe.CCEHBugs{}), false},
		{recipe.CLHTWorkloadBuckets(4, 8, recipe.CLHTBugs{}), false},
		{pmdk.CTreeWorkload(4, pmdk.CTreeBugs{}), false},
		{recipe.CCEHUpdateWorkload(2, 10), true},
		{recipe.CLHTUpdateWorkload(2, 10), true},
	}
	for _, tc := range progs {
		for _, workers := range []int{1, equivalenceWorkers} {
			for _, snapshots := range []int{0, -1} {
				name := fmt.Sprintf("%s/workers=%d/snapshots=%v",
					tc.prog.Name, workers, snapshots == 0)
				t.Run(name, func(t *testing.T) {
					opts := jaaru.Options{Observe: true, Workers: workers,
						Snapshots: snapshots}
					off := core.New(tc.prog, porOff(opts)).Run()
					on := core.New(tc.prog, opts).Run()

					assertPOREquivalent(t, name, off, on)
					if off.Metrics == nil || on.Metrics == nil {
						t.Fatal("Observe set but Metrics nil")
					}
					if off.Metrics.ScenariosPruned != 0 || off.Metrics.FingerprintHits != 0 {
						t.Errorf("POR disabled yet pruning counters nonzero: pruned=%d hits=%d",
							off.Metrics.ScenariosPruned, off.Metrics.FingerprintHits)
					}
					if tc.prunes && workers == 1 && snapshots == 0 &&
						on.Metrics.ScenariosPruned == 0 {
						t.Error("update workload pruned nothing: suite is vacuous")
					}
				})
			}
		}
	}
}

// TestPOREquivalenceSeededBugs: pruning must not lose bugs. A sample of the
// RECIPE seeded-bug matrix, POR off vs on; the bug key sets must match
// exactly. Infinite-loop cases are deliberately absent: with POR off their
// looping recoveries re-branch on every redundant read-from pick and blow
// the default scenario budget, so the reference run truncates and the
// results are incomparable (that blow-up is the reduction working as
// intended — TestPORFpEligibilityGates and the bench cover it).
func TestPOREquivalenceSeededBugs(t *testing.T) {
	cases := recipe.BugCases()
	sample := []int{1, 2, 3}
	for _, i := range sample {
		if i >= len(cases) {
			continue
		}
		bc := cases[i]
		name := fmt.Sprintf("%s-%d", bc.Benchmark, bc.ID)
		t.Run(name, func(t *testing.T) {
			opts := jaaru.Options{}
			off := core.New(bc.Program(), porOff(opts)).Run()
			on := core.New(bc.Program(), opts).Run()
			assertPOREquivalent(t, name, off, on)
			if len(on.Bugs) == 0 {
				t.Errorf("seeded bug not found with POR on")
			}
		})
	}
}

// porUpdateObsProgram commits one slot then rewrites it in place, reporting
// every recovered value: the crash-time state recurs with period two, so a
// default run exercises the fingerprint sweep while the recovery behaviour
// set stays small enough for the eager explorer to enumerate exhaustively.
func porUpdateObsProgram(rounds int, obs func(string)) jaaru.Program {
	return jaaru.Program{
		Name: "por-update-obs",
		Run: func(c *jaaru.Context) {
			root := c.Root()
			data := c.AllocLine(8)
			c.Store64(data, 7)
			c.Clflush(data, 8)
			c.Sfence()
			c.StorePtr(root, data)
			c.Clflush(root, 8)
			c.Sfence()
			for r := 0; r < rounds; r++ {
				v := uint64(0xA5A5)
				if r%2 == 1 {
					v = 0x5A5A
				}
				c.Store64(data, v)
				c.Clflush(data, 8)
				c.Sfence()
			}
		},
		Recover: func(c *jaaru.Context) {
			p := c.LoadPtr(c.Root())
			if p == 0 {
				obs("empty")
				return
			}
			obs(fmt.Sprintf("v=%#x", c.Load64(p)))
		},
	}
}

// TestPORYatCrossCheck: ground truth per the eager (Yat) exploration — a
// default pruned run must reach exactly the behaviour set the exhaustive
// per-image enumeration reaches, on a workload where the sweep demonstrably
// fires and on walkv's wide recovery tree.
func TestPORYatCrossCheck(t *testing.T) {
	t.Run("update", func(t *testing.T) {
		onObs, eagerObs := newSyncObs(), newSyncObs()
		on := core.New(porUpdateObsProgram(12, onObs.add),
			jaaru.Options{Observe: true}).Run()
		eager, err := yat.Eager(porUpdateObsProgram(12, eagerObs.add),
			jaaru.Options{}, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !onObs.equal(eagerObs) {
			t.Errorf("behaviour sets differ:\n  pruned: %v\n  eager:  %v",
				onObs.seen, eagerObs.seen)
		}
		if len(on.Bugs) != 0 || len(eager.Bugs) != 0 {
			t.Errorf("unexpected bugs: pruned %d, eager %d", len(on.Bugs), len(eager.Bugs))
		}
		if on.FailurePoints != eager.FailurePoints {
			t.Errorf("FailurePoints = %d pruned, %d eager",
				on.FailurePoints, eager.FailurePoints)
		}
		if on.Metrics.ScenariosPruned == 0 {
			t.Error("sweep never fired: cross-check is vacuous")
		}
	})
	t.Run("walkv", func(t *testing.T) {
		onObs, eagerObs := newSyncObs(), newSyncObs()
		on := jaaru.Check(walkvProgram(onObs.add), jaaru.Options{})
		_, err := yat.Eager(walkvProgram(eagerObs.add), jaaru.Options{}, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !onObs.equal(eagerObs) {
			t.Errorf("behaviour sets differ:\n  pruned: %v\n  eager:  %v",
				onObs.seen, eagerObs.seen)
		}
		if len(on.Bugs) != 0 {
			t.Errorf("unexpected bugs: %d", len(on.Bugs))
		}
	})
}

// TestPORReduction: on the update workloads the sweep must deliver at least
// the 5x physical-scenario reduction the change promises, while reporting
// the exact logical scenario count of the reference run.
func TestPORReduction(t *testing.T) {
	for _, prog := range recipe.UpdateWorkloads(1) {
		t.Run(prog.Name, func(t *testing.T) {
			off := core.New(prog, porOff(jaaru.Options{})).Run()
			on := core.New(prog, jaaru.Options{Observe: true}).Run()

			assertPOREquivalent(t, prog.Name, off, on)
			if on.Metrics.FingerprintHits == 0 {
				t.Fatal("no fingerprint hits on an update workload")
			}
			physical := int64(on.Scenarios) - on.Metrics.ScenariosPruned
			if physical <= 0 {
				t.Fatalf("pruned %d of %d scenarios: accounting broken",
					on.Metrics.ScenariosPruned, on.Scenarios)
			}
			if reduction := float64(off.Scenarios) / float64(physical); reduction < 5 {
				t.Errorf("reduction = %.1fx (%d -> %d physical), want >= 5x",
					reduction, off.Scenarios, physical)
			}
		})
	}
}
