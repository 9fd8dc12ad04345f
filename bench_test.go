package jaaru_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig14 benchmarks measure full exhaustive explorations (the paper's
// JTime column); per-op custom metrics report the execution and
// failure-point counts so the table's shape is visible from the bench
// output.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"jaaru"
	"jaaru/internal/core"
	"jaaru/internal/fuzz"
	"jaaru/internal/litmus"
	"jaaru/internal/netsim"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
	"jaaru/internal/yat"
)

// ---- §3.1, Figures 2–3: constraint refinement ------------------------------

func figure2() jaaru.Program {
	return jaaru.Program{
		Name: "figure2",
		Run: func(c *jaaru.Context) {
			x, y := c.Root(), c.Root().Add(8)
			c.Store64(y, 1)
			c.Store64(x, 2)
			c.Clflush(x, 8)
			c.Store64(y, 3)
			c.Store64(x, 4)
			c.Store64(y, 5)
			c.Store64(x, 6)
		},
		Recover: func(c *jaaru.Context) {
			_ = c.Load64(c.Root())
			_ = c.Load64(c.Root().Add(8))
		},
	}
}

func BenchmarkFigure2Refinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(figure2(), jaaru.Options{})
		if res.Buggy() || res.Scenarios != 8 {
			b.Fatalf("unexpected result: %+v", res)
		}
	}
}

// ---- §3.2, Figure 4: commit stores ------------------------------------------

func BenchmarkFigure4CommitStore(b *testing.B) {
	prog := jaaru.Program{
		Name: "figure4",
		Run: func(c *jaaru.Context) {
			tmp := c.AllocLine(8)
			c.Store64(tmp, 0xD0D0)
			c.Clflush(tmp, 8)
			c.StorePtr(c.Root(), tmp)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *jaaru.Context) {
			if child := c.LoadPtr(c.Root()); child != 0 {
				_ = c.Load64(child)
			}
		},
	}
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(prog, jaaru.Options{})
		if res.Buggy() || res.Scenarios != 4 {
			b.Fatalf("unexpected result: %+v", res)
		}
	}
}

// ---- Table 1: the litmus suite -----------------------------------------------

func BenchmarkTable1Litmus(b *testing.B) {
	tests := litmus.Tests()
	for i := 0; i < b.N; i++ {
		for _, tst := range tests {
			if _, res := litmus.Run(tst); res.Buggy() {
				b.Fatalf("%s: %v", tst.Name, res.Bugs)
			}
		}
	}
}

// ---- Figure 12: PMDK bug detection -------------------------------------------

func BenchmarkFig12_PMDKBugs(b *testing.B) {
	cases := pmdk.BugCases()
	for i := 0; i < b.N; i++ {
		for _, bc := range cases {
			res := core.New(bc.Program(), core.Options{StopAtFirstBug: true}).Run()
			if !res.Buggy() {
				b.Fatalf("bug %d not detected", bc.ID)
			}
		}
	}
}

// ---- Figure 13: RECIPE bug detection ------------------------------------------

func BenchmarkFig13_RECIPEBugs(b *testing.B) {
	cases := recipe.BugCases()
	for i := 0; i < b.N; i++ {
		for _, bc := range cases {
			res := core.New(bc.Program(), core.Options{
				StopAtFirstBug: true,
				MaxSteps:       20_000,
			}).Run()
			if !res.Buggy() {
				b.Fatalf("bug %d not detected", bc.ID)
			}
		}
	}
}

// ---- Figure 14: exhaustive exploration of the fixed RECIPE variants ----------

func benchFig14(b *testing.B, idx int) {
	prog := recipe.PerfWorkloads(1)[idx]
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = core.New(prog, core.Options{}).Run()
		if res.Buggy() {
			b.Fatalf("unexpected bug: %v", res.Bugs[0])
		}
	}
	b.ReportMetric(float64(res.Executions), "JExecs")
	b.ReportMetric(float64(res.FailurePoints), "FPoints")
	b.ReportMetric(float64(res.Executions-1)/float64(res.FailurePoints), "execs/FP")
}

func BenchmarkFig14_CCEH(b *testing.B)       { benchFig14(b, 0) }
func BenchmarkFig14_FAST_FAIR(b *testing.B)  { benchFig14(b, 1) }
func BenchmarkFig14_P_ART(b *testing.B)      { benchFig14(b, 2) }
func BenchmarkFig14_P_BwTree(b *testing.B)   { benchFig14(b, 3) }
func BenchmarkFig14_P_CLHT(b *testing.B)     { benchFig14(b, 4) }
func BenchmarkFig14_P_Masstree(b *testing.B) { benchFig14(b, 5) }

// ---- Parallel exploration scaling ---------------------------------------------
//
// Serial and Workers=N explorations of the same Figure 14 workload, timed
// side by side. Reported metrics: parallel executions per second and the
// wall-clock speedup over the serial run. The speedup tracks min(workers,
// GOMAXPROCS): on a single-CPU host the workers time-slice one core and the
// metric hovers around 1.0 (the interesting number there is that the
// parallel driver's coordination overhead stays in the noise); with real
// cores it approaches the worker count for tree-heavy workloads.

func benchParallelScaling(b *testing.B, workers int) {
	prog := recipe.PerfWorkloads(1)[0] // CCEH: the widest fixed RECIPE tree
	var serial, par time.Duration
	var execs int
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rs := core.New(prog, core.Options{}).Run()
		serial += time.Since(t0)
		t0 = time.Now()
		rp := core.New(prog, core.Options{Workers: workers}).Run()
		par += time.Since(t0)
		if rs.Executions != rp.Executions || rp.Buggy() {
			b.Fatalf("parallel diverged: %d vs %d executions, bugs %v",
				rp.Executions, rs.Executions, rp.Bugs)
		}
		execs = rp.Executions
	}
	b.ReportMetric(float64(execs)*float64(b.N)/par.Seconds(), "execs/s")
	b.ReportMetric(serial.Seconds()/par.Seconds(), "speedup")
}

func BenchmarkParallelScaling(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchParallelScaling(b, w)
		})
	}
}

// Figure 14's Yat column: the analytic eager state count.
func BenchmarkFig14_YatStateCount(b *testing.B) {
	progs := recipe.PerfWorkloads(1)
	var total float64
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			total += orderOfMagnitude(yat.CountStates(prog, core.Options{}))
		}
	}
	b.ReportMetric(total/float64(b.N), "log10(YatStates)Σ")
}

// orderOfMagnitude extracts the decimal exponent from a state count (the
// counts themselves overflow float64).
func orderOfMagnitude(cnt *yat.CountResult) float64 {
	s := cnt.Sci()
	i := strings.LastIndexByte(s, 'e')
	if i < 0 {
		return 0
	}
	exp, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return 0
	}
	return float64(exp)
}

// ---- Ablation: commit stores (the §3.2 complexity claim) ----------------------
//
// The same n-line initialization explored (a) guarded by a commit store the
// recovery checks first, and (b) read unconditionally by recovery. Lazy
// exploration makes (a) linear in n while (b) is exponential — the bench
// bounds (b) with MaxScenarios and reports explored executions for both.

func ablationProgram(lines int, commitStore bool) jaaru.Program {
	return jaaru.Program{
		Name: fmt.Sprintf("ablation-%d-%v", lines, commitStore),
		Run: func(c *jaaru.Context) {
			arr := c.AllocLine(uint64(lines) * 64)
			for i := 0; i < lines; i++ {
				c.Store64(arr.Add(uint64(i)*64), uint64(i)+1)
			}
			c.Clflush(arr, uint64(lines)*64)
			c.StorePtr(c.Root(), arr)
			c.Clflush(c.Root(), 8)
		},
		Recover: func(c *jaaru.Context) {
			arr := c.LoadPtr(c.Root())
			if commitStore {
				if arr == 0 {
					return // not committed: do not touch the data
				}
			} else if arr == 0 {
				// BUG PATTERN: read the data anyway, at its well-known
				// offset, without the commit check.
				arr = c.Root().Add(jaaru.RootSize)
			}
			for i := 0; i < lines; i++ {
				_ = c.Load64(arr.Add(uint64(i) * 64))
			}
		},
	}
}

func BenchmarkAblationCommitStore(b *testing.B) {
	var execs int
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(ablationProgram(8, true), jaaru.Options{})
		execs = res.Executions
	}
	b.ReportMetric(float64(execs), "JExecs")
}

func BenchmarkAblationNoCommitStore(b *testing.B) {
	var execs int
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(ablationProgram(8, false), jaaru.Options{
			MaxScenarios: 4096,
		})
		execs = res.Executions
	}
	b.ReportMetric(float64(execs), "JExecs")
}

// ---- Ablation: eviction policies ----------------------------------------------

func BenchmarkAblationEvictionEager(b *testing.B) {
	prog := recipe.CCEHWorkload(4, recipe.CCEHBugs{})
	for i := 0; i < b.N; i++ {
		if res := jaaru.Check(prog, jaaru.Options{Eviction: jaaru.EvictEager}); res.Buggy() {
			b.Fatal(res.Bugs)
		}
	}
}

func BenchmarkAblationEvictionAtFences(b *testing.B) {
	prog := recipe.CCEHWorkload(4, recipe.CCEHBugs{})
	for i := 0; i < b.N; i++ {
		if res := jaaru.Check(prog, jaaru.Options{Eviction: jaaru.EvictAtFences}); res.Buggy() {
			b.Fatal(res.Bugs)
		}
	}
}

// ---- Microbenchmark: simulation overhead per guest operation -------------------
//
// Context for the paper's 736× per-execution slowdown: the cost of one
// simulated store+flush+load round trip through the TSO machinery.

func BenchmarkGuestOpThroughput(b *testing.B) {
	res := jaaru.Execute("ops", func(c *jaaru.Context) {
		a := c.Alloc(64, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Store64(a, uint64(i))
			c.Clflushopt(a, 8)
			c.Sfence()
			if c.Load64(a) != uint64(i) {
				b.Fatal("lost store")
			}
		}
	}, jaaru.Options{MaxSteps: 1 << 40})
	if res.Buggy() {
		b.Fatal(res.Bugs)
	}
}

// ---- Yat equivalence spot check at bench scale ---------------------------------

func BenchmarkYatEagerSmallProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := yat.Eager(figure2(), core.Options{}, 100000)
		if err != nil || len(res.Bugs) != 0 {
			b.Fatalf("eager: %v %v", err, res)
		}
	}
}

// ---- Extensions ------------------------------------------------------------------

// Exhaustive checking of the replayed-trace KV server (the deterministic
// record-and-replay extension lifting the paper's Redis limitation).
func BenchmarkServerReplayExploration(b *testing.B) {
	trace := netsim.Trace{
		{Op: netsim.OpSet, Key: 1, Val: 10},
		{Op: netsim.OpAdd, Key: 1, Val: 5},
		{Op: netsim.OpSet, Key: 2, Val: 20},
		{Op: netsim.OpDel, Key: 1},
		{Op: netsim.OpAdd, Key: 2, Val: 7},
	}
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(netsim.Program("bench-server", trace, netsim.ServerBugs{}),
			jaaru.Options{})
		if res.Buggy() {
			b.Fatal(res.Bugs)
		}
	}
}

// One lazy-vs-eager cross-check of a random program (the self-validation
// fuzzer's unit of work).
func BenchmarkFuzzCrossCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fuzz.CrossCheck(fuzz.Config{Seed: int64(i), MixedSizes: true, RMW: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: undo-log vs redo-log transactions on the same three-word
// transfer, exhaustively explored.
func BenchmarkAblationUndoLogTx(b *testing.B) {
	prog := jaaru.Program{
		Name: "undo-ablation",
		Run: func(c *jaaru.Context) {
			p := pmdk.Create(c, 8192, pmdk.CreateBugs{})
			a := p.PAlloc(24, pmdk.HeapBugs{})
			p.SetRootObj(a)
			tx := p.TxBegin(pmdk.TxBugs{})
			tx.Add(a, 24)
			c.Store64(a, 1)
			c.Store64(a.Add(8), 2)
			c.Store64(a.Add(16), 3)
			tx.Commit()
		},
		Recover: func(c *jaaru.Context) {
			p, ok := pmdk.Open(c)
			if !ok {
				return
			}
			p.TxRecover()
			if a := p.RootObj(); a != 0 {
				v := c.Load64(a)
				c.Assert(v == 0 || v == 1, "torn: %d", v)
			}
		},
	}
	var execs int
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(prog, jaaru.Options{})
		if res.Buggy() {
			b.Fatal(res.Bugs)
		}
		execs = res.Executions
	}
	b.ReportMetric(float64(execs), "JExecs")
}

func BenchmarkAblationRedoLogTx(b *testing.B) {
	prog := jaaru.Program{
		Name: "redo-ablation",
		Run: func(c *jaaru.Context) {
			p := pmdk.Create(c, 8192, pmdk.CreateBugs{})
			a := p.PAlloc(24, pmdk.HeapBugs{})
			p.SetRootObj(a)
			tx := p.RedoBegin()
			tx.Set(a, 1)
			tx.Set(a.Add(8), 2)
			tx.Set(a.Add(16), 3)
			tx.Commit()
		},
		Recover: func(c *jaaru.Context) {
			p, ok := pmdk.Open(c)
			if !ok {
				return
			}
			p.RedoRecover()
			if a := p.RootObj(); a != 0 {
				v := c.Load64(a)
				c.Assert(v == 0 || v == 1, "torn: %d", v)
			}
		},
	}
	var execs int
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(prog, jaaru.Options{})
		if res.Buggy() {
			b.Fatal(res.Bugs)
		}
		execs = res.Executions
	}
	b.ReportMetric(float64(execs), "JExecs")
}

// Ablation: the cost of exploring store-buffer eviction exhaustively
// (Figure 11's "choose to evict") versus the default eager policy, on the
// same small program.
func BenchmarkAblationEvictExplore(b *testing.B) {
	prog := jaaru.Program{
		Name: "evict-explore-ablation",
		Run: func(c *jaaru.Context) {
			r := c.Root()
			c.Store64(r, 1)
			c.Clflush(r, 8)
			c.Store64(r.Add(64), 2)
			c.Clflush(r.Add(64), 8)
		},
		Recover: func(c *jaaru.Context) {
			_ = c.Load64(c.Root())
			_ = c.Load64(c.Root().Add(64))
		},
	}
	var execs int
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(prog, jaaru.Options{Eviction: jaaru.EvictExplore})
		if res.Buggy() {
			b.Fatal(res.Bugs)
		}
		execs = res.Executions
	}
	b.ReportMetric(float64(execs), "JExecs")
}

// ---- Observability layer overhead ----------------------------------------------
//
// The acceptance bar for the observability layer: with Observe unset every
// instrumentation hook reduces to an inlined nil-receiver check, so the
// disabled run must be indistinguishable from the pre-instrumentation
// baseline (<2%), and even the enabled run only pays one shard-local atomic
// per hook. The disabled run also covers the forensics hooks (the witness
// recorder in traceOp, the TSO probe, the interval tracer): outside a
// BuildWitness replay all of them are nil, so exploration pays the same
// one-branch-per-hook cost as the observability counters. Compare with:
//
//	go test -bench Observability -count 10 . | benchstat

func BenchmarkObservability(b *testing.B) {
	prog := recipe.PerfWorkloads(1)[1] // FAST_FAIR: mid-size, flush-heavy
	for _, cfg := range []struct {
		name string
		opts jaaru.Options
	}{
		{"disabled", jaaru.Options{}},
		{"enabled", jaaru.Options{Observe: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := jaaru.Check(prog, cfg.opts)
				if res.Buggy() {
					b.Fatal(res.Bugs)
				}
			}
		})
	}
}

// The cost of the forensics layer itself: one fully-instrumented replay
// (BuildWitness) and one ddmin pass over the choice prefix (Minimize), on a
// bug found once outside the timed region. Both are off the exploration hot
// path — this pins what a user pays per explained bug, not per scenario.
// The subject is the first seeded RECIPE bug under jaaru-bugs' options: a
// CCEH recovery loop whose scenario runs to the 20k step budget, so the
// witness is mid-size (~20k ops, ~160k per-byte load resolutions) rather
// than a litmus-scale toy.
func BenchmarkWitness(b *testing.B) {
	bc := recipe.BugCases()[0]
	prog := bc.Program()
	opts := jaaru.Options{FlagMultiRF: true, MaxSteps: 20_000, StopAtFirstBug: true}
	res := jaaru.Check(prog, opts)
	if !res.Buggy() {
		b.Fatal("no bug to explain")
	}
	bug := res.Bugs[0]
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if w := jaaru.BuildWitness(prog, opts, bug); !w.Reproduced {
				b.Fatal("witness replay diverged")
			}
		}
	})
	b.Run("minimize", func(b *testing.B) {
		var trials int
		for i := 0; i < b.N; i++ {
			_, m := jaaru.Minimize(prog, opts, bug)
			trials = m.Trials
		}
		b.ReportMetric(float64(trials), "trials")
	})
}

// Performance-issue detection overhead on a clean exploration.
func BenchmarkPerfIssueDetectionOverhead(b *testing.B) {
	prog := recipe.CCEHWorkload(4, recipe.CCEHBugs{})
	for i := 0; i < b.N; i++ {
		res := jaaru.Check(prog, jaaru.Options{FlagPerfIssues: true})
		if res.Buggy() {
			b.Fatal(res.Bugs)
		}
	}
}

// ---- Snapshot engine --------------------------------------------------------
//
// The amortization bar for the snapshot engine (the replay-based equivalent
// of the paper's fork() strategy): resuming failure scenarios from captured
// pre-failure snapshots must beat re-running every choice prefix, with
// bit-identical results either way (TestSnapshotEquivalence*). The
// end-to-end measurement across workloads is jaarubench:
//
//	bash jaarubench/run.sh --workload update-recur --seed 1

func BenchmarkSnapshotRestore(b *testing.B) {
	prog := recipe.CCEHWorkload(12, recipe.CCEHBugs{})
	for _, cfg := range []struct {
		name string
		opts jaaru.Options
	}{
		{"off", jaaru.Options{Snapshots: -1}},
		{"on", jaaru.Options{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var execs int
			for i := 0; i < b.N; i++ {
				res := jaaru.Check(prog, cfg.opts)
				if res.Buggy() {
					b.Fatal(res.Bugs)
				}
				execs = res.Executions
			}
			b.ReportMetric(float64(execs), "JExecs")
		})
	}
}
