package core

import (
	"testing"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
)

// snapProgram is a small two-failure-point program with a recovery that
// reads the committed state — enough choice-tree structure for snapshots to
// capture, restore, and invalidate.
func snapProgram(o *obsSet) Program {
	return Program{
		Name: "snap-test",
		Run: func(c *Context) {
			root := c.Root()
			data := c.AllocLine(8)
			c.Store64(data, 7)
			c.Clflush(data, 8)
			c.StorePtr(root, data)
			c.Clflush(root, 8)
		},
		Recover: func(c *Context) {
			p := c.LoadPtr(c.Root())
			if p == 0 {
				o.add("empty")
				return
			}
			o.add("v=%d", c.Load64(p))
		},
	}
}

func TestSnapshotEligibilityGates(t *testing.T) {
	prog := snapProgram(&obsSet{})
	cases := []struct {
		name string
		opts Options
		want bool
	}{
		{"default", Options{}, true},
		{"disabled", Options{Snapshots: -1}, false},
		{"no failure injection", Options{MaxFailures: -1}, false},
		{"random scheduler", Options{RandomScheduler: true, Seed: 1}, false},
		{"random eviction", Options{Eviction: EvictRandom, Seed: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(prog, tc.opts)
			if got := c.snapEligible(); got != tc.want {
				t.Errorf("snapEligible = %v, want %v", got, tc.want)
			}
		})
	}
	t.Run("no recovery", func(t *testing.T) {
		p := prog
		p.Recover = nil
		if New(p, Options{}).snapEligible() {
			t.Error("snapEligible without a Recover function")
		}
	})
}

func TestSnapshotRunUsesRestores(t *testing.T) {
	offObs, onObs := &obsSet{}, &obsSet{}
	off := New(snapProgram(offObs), Options{Snapshots: -1, Observe: true}).Run()
	on := New(snapProgram(onObs), Options{Observe: true}).Run()

	if off.Scenarios != on.Scenarios || off.Executions != on.Executions ||
		off.Steps != on.Steps || len(off.Bugs) != len(on.Bugs) {
		t.Errorf("results diverge: off %+v\non %+v", off, on)
	}
	if !sameStrings(offObs.set(), onObs.set()) {
		t.Errorf("observations diverge: off %v, on %v", offObs.set(), onObs.set())
	}
	if off.Metrics.Canonical() != on.Metrics.Canonical() {
		t.Errorf("canonical metrics diverge:\noff %+v\non  %+v",
			off.Metrics.Canonical(), on.Metrics.Canonical())
	}
	if on.Metrics.SnapshotRestores == 0 {
		t.Error("no scenario restored a snapshot")
	}
	if on.Metrics.SnapshotRestores >= int64(on.Scenarios) {
		t.Errorf("SnapshotRestores = %d out of %d scenarios: the first full run cannot restore",
			on.Metrics.SnapshotRestores, on.Scenarios)
	}
	if off.Metrics.SnapshotCaptures != 0 {
		t.Errorf("disabled engine captured %d snapshots", off.Metrics.SnapshotCaptures)
	}
}

// TestSnapshotStalePrefixPruned drives usableSnapshot directly: an entry
// whose recorded prefix the chooser has backtracked away from must be
// dropped, and a matching fail-decision entry selected.
func TestSnapshotStalePrefixPruned(t *testing.T) {
	c := New(snapProgram(&obsSet{}), Options{})
	c.snapActive = true
	c.stack = pmem.NewStack()
	c.stack.EnableJournal()
	// Entries at depths 0 and 1 over a shared log whose first decision
	// continued past the first failure point.
	push := func(log ...int) {
		c.dropSnaps()
		for i, v := range log {
			c.snapPts = append(c.snapPts, choicePoint{kind: chooseFail, n: 2, idx: v})
			c.snaps = append(c.snaps, &snapEntry{kind: fpSnap, depth: i, mark: c.stack.Mark()})
		}
		c.snaps = append(c.snaps, &snapEntry{kind: fpSnap, depth: len(log), mark: c.stack.Mark()})
	}
	push(0)

	// Current scenario: fail at the first point — the depth-1 entry (whose
	// prefix says the first point continued) is stale, the depth-0 usable.
	c.chooser.points = []choicePoint{{kind: chooseFail, n: 2, idx: 1}}
	s := c.usableSnapshot()
	if s == nil || s.depth != 0 {
		t.Fatalf("usableSnapshot = %+v, want the depth-0 entry", s)
	}
	if len(c.snaps) != 1 {
		t.Errorf("stale entry not pruned: %d entries remain", len(c.snaps))
	}
	if len(c.snapPts) != 0 {
		t.Errorf("choice log holds %d decisions after the prune, want 0", len(c.snapPts))
	}

	// A scenario whose prefix matches no fail decision restores nothing.
	push()
	c.chooser.points = []choicePoint{{kind: chooseFail, n: 2, idx: 0}}
	if s := c.usableSnapshot(); s != nil {
		t.Errorf("usableSnapshot = %+v for a continue decision, want nil", s)
	}
}

// TestSnapshotCaptureDepthGuard: re-passing a capture site at or below the
// top entry's depth (a restored prefix) must not duplicate the entry.
func TestSnapshotCaptureDepthGuard(t *testing.T) {
	c := New(snapProgram(&obsSet{}), Options{Observe: true})
	c.stack = pmem.NewStack()
	c.stack.EnableJournal()
	c.beginSnapScenario()
	if !c.snapActive {
		t.Fatal("engine inactive")
	}
	c.chooser.points = []choicePoint{
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseFail, n: 2, idx: 0},
		{kind: chooseFail, n: 2, idx: 0},
	}
	c.chooser.cursor = 2
	c.captureSnap(fpSnap)
	c.captureSnap(fpSnap) // same cursor: must dedup
	if len(c.snaps) != 1 {
		t.Fatalf("duplicate capture: %d entries", len(c.snaps))
	}
	c.chooser.cursor = 1
	c.captureSnap(fpSnap) // shallower: a replayed prefix site
	if len(c.snaps) != 1 {
		t.Fatalf("shallow re-capture accepted: %d entries", len(c.snaps))
	}
	c.chooser.cursor = 3
	c.captureSnap(endSnap)
	if len(c.snaps) != 2 {
		t.Fatalf("deeper capture rejected: %d entries", len(c.snaps))
	}
	if got := c.col.Counters()[obs.SnapshotCaptures]; got != 2 {
		t.Errorf("SnapshotCaptures = %d, want 2", got)
	}
}

// TestChoiceSnapshotPushPopAllocs is the hot-path allocation gate: once the
// entry pool and the chooser's slices are warm, a full choice-snapshot
// push (captureChoiceSnap) plus the stale-prefix pop back into the pool
// (usableSnapshot) must not allocate.
func TestChoiceSnapshotPushPopAllocs(t *testing.T) {
	c := New(snapProgram(&obsSet{}), Options{})
	c.stack = pmem.NewStack()
	c.stack.EnableJournal()
	c.stack.Push() // post-failure execution: Top().ID == 1
	c.snapActive = true
	c.chsnapActive = true
	c.segLogs = append(c.segLogs[:0], nil)
	pts := []choicePoint{
		{kind: chooseFail, n: 2, idx: 1},
		{kind: chooseReadFrom, n: 3, idx: 0},
	}
	cycle := func() {
		c.chooser.points = append(c.chooser.points[:0], pts...)
		c.chooser.cursor = 2
		c.captureChoiceSnap()
		if len(c.snaps) != 1 {
			t.Fatalf("capture did not push: %d entries", len(c.snaps))
		}
		// Backtrack away from the captured prefix: the deepest recorded
		// decision flips, the entry goes stale, and the scan pools it.
		c.chooser.points[1].idx = 1
		c.chooser.stable = 1
		if s := c.usableSnapshot(); s != nil {
			t.Fatalf("stale entry survived as %+v", s)
		}
		if len(c.snaps) != 0 {
			t.Fatalf("pop left %d entries", len(c.snaps))
		}
	}
	cycle() // warm the pool and every reused slice
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("warmed choice-snapshot push/pop allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestChoiceSnapExciseBelow: when porPruneSweep clamps point i, every stack
// entry whose prefix took the now-excised branch at i must be dropped, while
// entries on the surviving branch (or too shallow to cover i) stay cached.
func TestChoiceSnapExciseBelow(t *testing.T) {
	live := []choicePoint{
		{kind: chooseFail, n: 2, idx: 1},
		{kind: chooseFail, n: 2, idx: 0}, // live path: point 1 not taken
		{kind: chooseReadFrom, n: 2, idx: 0},
	}
	// setup builds entries at depths 1, 2 and 3 over a shared log that took
	// option idxAt1 at point 1.
	setup := func(idxAt1 int) *Checker {
		c := New(snapProgram(&obsSet{}), Options{})
		c.stack = pmem.NewStack()
		c.stack.EnableJournal()
		c.chooser.points = append([]choicePoint(nil), live...)
		c.snapPts = append([]choicePoint(nil), live...)
		c.snapPts[1].idx = idxAt1
		for d := 1; d <= 3; d++ {
			c.snaps = append(c.snaps, &snapEntry{kind: choiceSnap, depth: d, mark: c.stack.Mark()})
		}
		return c
	}

	// Entries on the live branch survive.
	c := setup(0)
	c.chsnapExciseBelow(1)
	if len(c.snaps) != 3 {
		t.Errorf("excision of the live branch kept %d entries, want 3", len(c.snaps))
	}

	// Entries that took the excised branch go; the shallow one (which does
	// not cover point 1) stays, and the log is cut back to it.
	c = setup(1)
	c.chsnapExciseBelow(1)
	if len(c.snaps) != 1 || c.snaps[0].depth != 1 {
		t.Fatalf("excision kept %d entries, want the depth-1 entry only", len(c.snaps))
	}
	if len(c.snapPts) != 1 {
		t.Errorf("choice log holds %d decisions, want 1", len(c.snapPts))
	}
}

// TestFailPointAllocations is the failure-point cost gate: once warmed, a
// fresh pre-failure failure point — the fpSnap capture plus the POR memo
// (crash-state fingerprint and prefix cost) — must not allocate.
func TestFailPointAllocations(t *testing.T) {
	c := New(Program{Name: "fail-point-gate", Run: func(*Context) {}, Recover: func(*Context) {}}, Options{})
	c.resetScenario()
	ctx := &Context{ck: c, th: c.sched.reset(c.opts.SBCapacity, nil)}
	c.porBeginScenario()
	c.beginSnapScenario()
	if !c.snapActive || !c.porFpActive {
		t.Fatalf("engines inactive: snapshots %v, POR fingerprints %v", c.snapActive, c.porFpActive)
	}
	c.stack.EnableJournal()
	a := ctx.Root()
	for i := 0; i < 64; i++ { // a touched history for the fingerprint to cover
		ctx.Store64(a.Add(uint64(i%16)*8), uint64(i))
		ctx.Clflush(a.Add(uint64(i%16)*8), 8)
	}
	i := uint64(0)
	failPoint := func() {
		mark := c.stack.Mark()
		points, snaps := len(c.chooser.points), len(c.snaps)
		i++
		ctx.Store64(a, i)
		ctx.Clflush(a, 8)
		ctx.Sfence()
		if len(c.chooser.points) != points+1 || c.chooser.aux[points] == nil || len(c.snaps) != snaps+1 {
			t.Fatalf("store+flush made %d points (memo %v), %d captures; want one memoized point and one capture",
				len(c.chooser.points)-points, len(c.chooser.points) > points && c.chooser.aux[points] != nil,
				len(c.snaps)-snaps)
		}
		// Unwind to the state before the point, so every run repeats it.
		c.chooser.truncate(points)
		c.chooser.cursor = points
		c.popSnapsTo(snaps)
		c.stack.Rewind(mark)
	}
	for range 8 {
		failPoint()
	}
	if n := testing.AllocsPerRun(100, failPoint); n != 0 {
		t.Errorf("warmed pre-failure failure point allocates %.2f times, want 0", n)
	}
}

// TestSnapshotCaptureCopiesOnlyDelta: a capture's cost must not grow with the
// choice depth or the trace length. At depth 4096 with TraceLen 64, a
// capture one decision and three operations past the previous one extends
// the shared logs by exactly that one decision and those three operations,
// and one past more than TraceLen operations copies only the TraceLen the
// ring still holds; restoring any entry rebuilds the exact ring.
func TestSnapshotCaptureCopiesOnlyDelta(t *testing.T) {
	const depth, traceLen = 4096, 64
	c := New(snapProgram(&obsSet{}), Options{TraceLen: traceLen})
	c.stack = pmem.NewStack()
	c.stack.EnableJournal()
	c.beginSnapScenario()
	c.chooser.points = make([]choicePoint, depth+1)
	for i := range c.chooser.points {
		c.chooser.points[i] = choicePoint{kind: chooseFail, n: 2}
	}
	op := 0
	ops := func(n int) {
		for range n {
			c.traceOp(0, "store", pmem.Addr(op), 8, uint64(op))
			op++
		}
	}
	var rings [][]TraceOp
	capture := func(cursor, wantPts, wantOps int) {
		t.Helper()
		pts, trace := len(c.snapPts), len(c.snapTrace)
		// Sentinels in what the logs already hold: a capture that rewrote
		// them instead of appending would overwrite these.
		if pts > 0 {
			c.snapPts[pts-1].idx = 7
			c.snapTrace[trace-1].Size = -1
		}
		c.chooser.cursor = cursor
		c.captureSnap(fpSnap)
		if pts > 0 && (c.snapPts[pts-1].idx != 7 || c.snapTrace[trace-1].Size != -1) {
			t.Errorf("capture at depth %d rewrote the logs below the previous capture", cursor)
		}
		if pts > 0 {
			c.snapPts[pts-1].idx = 0
			c.snapTrace[trace-1].Size = 8
		}
		if got := len(c.snapPts) - pts; got != wantPts {
			t.Errorf("capture at depth %d appended %d decisions, want %d", cursor, got, wantPts)
		}
		if got := len(c.snapTrace) - trace; got != wantOps {
			t.Errorf("capture at depth %d appended %d trace operations, want %d", cursor, got, wantOps)
		}
		rings = append(rings, c.trace.snapshot())
	}
	ops(40)
	capture(depth-2, depth-2, 40) // the first capture copies its whole prefix
	ops(3)
	capture(depth-1, 1, 3)
	ops(100)
	capture(depth, 1, traceLen)

	ops(50)
	for i := len(c.snaps) - 1; i >= 0; i-- {
		c.popSnapsTo(i + 1)
		c.restoreSnapshot(c.snaps[i])
		if got := c.trace.snapshot(); !equalTraces(got, rings[i]) {
			t.Errorf("entry %d restored ring %v, want %v", i, got, rings[i])
		}
	}
}

func equalTraces(a, b []TraceOp) bool {
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
