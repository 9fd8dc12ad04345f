package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"jaaru/internal/obs"
	"jaaru/internal/pmem"
	"jaaru/internal/tso"
)

// Pre-failure snapshot engine — the deterministic-replay equivalent of the
// paper's fork()-based restart strategy (§4, "Evaluating executions").
//
// The paper's Jaaru forks the checked process at every failure point, so
// the expensive pre-failure execution runs once and each failure scenario
// resumes from a cheap process snapshot. Our replay-based engine instead
// re-ran the guest Run function for every scenario; for CCEH that made the
// byte-identical pre-failure prefix ~half of total wall time. This file
// closes the gap:
//
//   - During any full scenario run, captureSnap records the checker state
//     at each eligible failure point (and at the mandatory end-of-run
//     failure): the global sequence counter, fpCount, the allocator
//     high-water mark, the trace ring, and a pmem.Mark into the journaled
//     execution stack (store queues shared by reference + recorded length;
//     intervals via the undo journal — refinement mutates them in place,
//     so restoring needs undo, not sharing).
//   - A scenario whose recorded choice prefix crashes at a captured point
//     (fail@k taken, or the end-of-run failure) restores the snapshot and
//     jumps straight into the recovery loop of runScenario, never invoking
//     c.prog.Run again. The same machinery applies at recovery-segment
//     failure points, so multi-failure scenarios amortize their recovery
//     prefixes too.
//   - Snapshots are kept as a stack keyed by the choice prefix they were
//     captured under, paralleling the chooser's depth-first backtracking:
//     usableSnapshot drops entries whose prefix the current scenario no
//     longer replays, and restoring an entry invalidates (prunes) every
//     deeper one, since the rewind reclaims their journaled state.
//   - Each parallel worker owns a private snapshot cache over its private
//     stack. A claimed branch prefix that extends the prefix of a surviving
//     snapshot reuses it; otherwise the first scenario of the claim is a
//     full run that recaptures from scratch.
//
// Exactness: results with the engine on must be bit-identical to the
// full-replay path, including the canonical observability counters. The
// guest-visible state (queues, intervals, allocator, seq, trace) is restored
// exactly; the exploration-level counters a skipped prefix would have
// accumulated (steps, load-path counters, executions, per-scenario
// perf-issue and multi-rf manifestations) are captured as deltas against the
// scenario baseline and re-applied on restore. Counters whose value differs
// between a replayed and a fresh traversal of the same prefix
// (ChoicesReplayed) are computed analytically; phase timings are wall-clock
// and excluded from the canonical comparison anyway.

// Choice-point snapshot stack (Options.ChoiceSnapshots). The engine above
// amortizes the *pre-failure* prefix, but a sibling scenario still replayed
// the whole post-failure recovery prefix through the chooser — on CCEH that
// left choices_replayed ≈ 41× choices_fresh. The choiceSnap kind below closes
// the other half of the paper's fork() design: a snapshot is captured at
// every post-failure read-from choice point along the current DFS path, so
// advancing to the next sibling pops to the deepest shared prefix and
// restores O(state touched since that choice).
//
// A guest Go function cannot resume mid-call the way a forked process can,
// so a choiceSnap restore is a two-part move:
//
//   - The simulator state (pmem stack, seq, allocator, trace ring, TSO
//     buffers, scheduler scalars) is rewound exactly, as for fpSnap.
//   - The in-flight recovery segment is re-entered from its start in
//     *fast-forward* mode (ffwdState): every operation skips its effects and
//     its step accounting, loads are fed from a per-execution value log
//     (segLogs) recorded by the capture pass, and threads still take their
//     scheduler turns so the interleaving replays deterministically. At the
//     captured choice point — the arrival, identified by the log cursor
//     reaching the capture's log length — execution switches to live: the
//     per-thread TSO snapshots and segment scalars are installed and the
//     flipped sibling decision is consumed as an ordinary replayed choose().
//
// The fast-forward pass touches no counters and no simulator state, so the
// bit-identical accounting argument of the header comment carries over: the
// restore applies the captured deltas analytically and the live suffix
// accounts for itself. Any divergence between the log and the replayed
// operation stream panics with engineError — the same nondeterminism
// backstop the chooser itself provides.

// snapKind distinguishes the three capture sites.
type snapKind uint8

const (
	// fpSnap is captured in BeforeFlushEffect, immediately before the
	// fail/continue choice of an eligible failure point: restoring it
	// resumes as if that choice selected "fail".
	fpSnap snapKind = iota
	// endSnap is captured after the pre-failure execution completed,
	// immediately before the mandatory end-of-run failure.
	endSnap
	// choiceSnap is captured in resolveByte, immediately before a
	// post-failure multi-candidate read-from choice is consumed: restoring
	// it resumes mid-recovery-segment at that choice via fast-forward
	// replay (see the header comment above).
	choiceSnap
)

// segEventKind labels one recorded event of a post-failure segment's value
// log — everything a fast-forward replay must feed to the guest instead of
// recomputing.
type segEventKind uint8

const (
	// evLoad is one resolved load or RMW-read value (any path: store-buffer
	// hit, cache hit, or refinement), recorded whole-operation: logging once
	// per operation instead of once per byte keeps the always-on recording
	// tax on live post-failure execution small.
	evLoad segEventKind = iota
	// evAlloc is an Alloc result address (the allocator is truncated to the
	// capture high-water at restore, so fast-forwarded Allocs must not
	// re-advance it).
	evAlloc
	// evLimit is a PoolLimit result (the live allocator already reflects
	// the whole prefix during fast-forward, so the momentary value is fed).
	evLimit
)

// segEvent is one value-log entry.
type segEvent struct {
	addr pmem.Addr // evLoad: operation address; evAlloc/evLimit: result address
	val  uint64    // evLoad: the resolved value, little-endian over size bytes
	kind segEventKind
	size uint8 // evLoad: operation width in bytes
}

// ffwdState is the in-flight fast-forward replay of a restored choiceSnap.
type ffwdState struct {
	active bool
	log    []segEvent // the segment's value log, [0:target) pre-arrival
	cursor int
	target int
	snap   *snapEntry
}

// snapEntry is one captured scenario state.
type snapEntry struct {
	kind snapKind
	// depth is the chooser cursor at capture: the entry's choice prefix —
	// the decisions that deterministically lead here — is
	// Checker.snapPts[:depth].
	depth int

	// Guest-visible state.
	mark    pmem.Mark
	seq     pmem.Seq
	fpCount int
	preDone bool
	high    pmem.Addr // allocator high-water mark
	// The trace ring at capture: it had added traceTotal operations and
	// held the last min(traceTotal, TraceLen) of Checker.snapTrace[:traceLen].
	traceLen, traceTotal int

	// Exploration-level deltas accumulated by the capture scenario up to
	// this point (relative to its scenario baseline), re-applied when a
	// scenario restores this entry instead of re-running the prefix.
	vec        obs.CounterVec
	stepsDelta int64
	perf       map[string]*PerfIssue
	multi      map[string]*MultiRF

	// choiceSnap-only fields: the mid-segment scalars and per-thread TSO
	// state the fast-forward arrival installs, plus the coordinates of the
	// capture within the segment's value log.
	segSteps  int            // c.steps at capture (ops of the in-flight segment)
	segDirty  bool           // c.dirty at capture
	execID    int            // stack index of the in-flight execution
	logTarget int            // len(segLogs[execID-1]) at capture — the arrival cursor
	tso       []tso.Snapshot // per-thread buffering state, scheduler order
	// lastStore copy (FlagPerfIssues only), as parallel slices so a warmed
	// capture allocates nothing.
	lsK []pmem.Addr
	lsV []pmem.Seq
}

// snapEligible reports whether the snapshot engine can run for this checker
// at all. RandomScheduler and EvictRandom draw from an rng that is re-seeded
// per scenario and advanced by every operation — a skipped prefix would
// leave it in the wrong state — and instrumented (Yat) or replayed runs
// must see every guest operation.
func (c *Checker) snapEligible() bool {
	return c.opts.Snapshots > 0 &&
		c.opts.MaxFailures > 0 &&
		c.prog.Recover != nil &&
		!c.opts.RandomScheduler &&
		c.opts.Eviction != EvictRandom &&
		c.snapshot == nil &&
		!c.replaySegment
}

// beginSnapScenario latches eligibility and records the scenario baseline
// the capture deltas are measured against. Called at the top of runScenario,
// before any restore re-applies prefix contributions.
func (c *Checker) beginSnapScenario() {
	c.segLog = nil // re-armed by pushExecution / restoreChoiceSnap
	c.snapActive = c.snapEligible()
	// The choice-point stack rides on the same eligibility gates (it shares
	// the journaled pmem stack and the delta accounting) plus its own flag;
	// the witness recorder must observe every operation, so it disables the
	// fast-forward path outright.
	c.chsnapActive = c.snapActive && c.opts.ChoiceSnapshots > 0 && c.wrec == nil
	if !c.snapActive {
		return
	}
	c.snapBase = c.col.Counters()
	c.snapBaseSteps = c.totalSteps
	if c.scenPerf == nil {
		c.scenPerf = make(map[string]*PerfIssue)
		c.scenMulti = make(map[string]*MultiRF)
	} else {
		clear(c.scenPerf)
		clear(c.scenMulti)
	}
}

// dropSnaps releases every snapshot (a fresh full run re-captures from
// scratch, and an engine panic leaves the journaled stack untrustworthy).
func (c *Checker) dropSnaps() { c.popSnapsTo(0) }

// popSnapsTo releases every entry above the first n and truncates the shared
// logs to what the new top entry recorded.
func (c *Checker) popSnapsTo(n int) {
	for i := n; i < len(c.snaps); i++ {
		c.putSnapEntry(c.snaps[i])
		c.snaps[i] = nil
	}
	c.snaps = c.snaps[:n]
	depth, traceLen := 0, 0
	if n > 0 {
		depth, traceLen = c.snaps[n-1].depth, c.snaps[n-1].traceLen
	}
	c.snapPts = c.snapPts[:depth]
	c.snapTrace = c.snapTrace[:traceLen]
}

// getSnapEntry draws a snapshot entry from the free list (or allocates one).
// Pooled entries keep their backing slices, so a warmed capture/restore
// cycle — the steady state of sibling exploration — allocates nothing.
func (c *Checker) getSnapEntry() *snapEntry {
	if n := len(c.snapFree); n > 0 {
		s := c.snapFree[n-1]
		c.snapFree[n-1] = nil
		c.snapFree = c.snapFree[:n-1]
		return s
	}
	return &snapEntry{}
}

// putSnapEntry returns a pruned or dropped entry to the free list. Slices
// are retained for reuse; the maps are released (they are allocated only
// under FlagPerfIssues/FlagMultiRF, off the alloc-gated hot path).
func (c *Checker) putSnapEntry(s *snapEntry) {
	s.perf, s.multi = nil, nil
	c.snapFree = append(c.snapFree, s)
}

// usableSnapshot returns the deepest snapshot the current scenario can
// resume from, pruning entries captured under prefixes the chooser has
// backtracked away from. Snapshot prefixes are nested (each extends the one
// below), so they share one log, snapPts, and an entry is stale exactly when
// its depth passes the first decision where the log and the chooser's vector
// differ; stale entries are always the deepest. A valid entry is usable if it
// is an endSnap (recovery re-runs from the completed pre-failure state) or an
// fpSnap whose failure decision the scenario records as taken. Deeper
// valid-but-unusable entries (e.g. a recovery failure point this scenario
// does not crash at) stay cached; they are pruned if a shallower entry is
// restored, because the rewind reclaims their journaled state.
func (c *Checker) usableSnapshot() *snapEntry {
	if !c.snapActive {
		return nil
	}
	pts := c.chooser.points
	// The log and the vector agree below chooser.stable by construction
	// (advance only flips the deepest surviving index, and the log was
	// copied from the vector; see chooser.stable), so the comparison starts
	// there.
	valid := min(len(c.snapPts), len(pts))
	for i := min(c.chooser.stable, valid); i < valid; i++ {
		if c.snapPts[i] != pts[i] {
			valid = i
			break
		}
	}
	c.chooser.stable = math.MaxInt
	n := len(c.snaps)
	for n > 0 && c.snaps[n-1].depth > valid {
		n--
	}
	c.popSnapsTo(n)
	for i := n - 1; i >= 0; i-- {
		s := c.snaps[i]
		var usable bool
		switch s.kind {
		case endSnap:
			usable = true
		case fpSnap:
			usable = s.depth < len(pts) &&
				pts[s.depth].kind == chooseFail && pts[s.depth].idx == 1
		case choiceSnap:
			// Any scenario whose recorded vector extends this prefix can
			// resume here: the arrival consumes points[s.depth] — flipped by
			// advance, or unchanged with the flip somewhere deeper, in which
			// case the live suffix simply replays the remaining recorded
			// decisions. (advance's deepest modified index is >= s.depth
			// whenever the prefix still matches, so the suffix replay always
			// reaches the divergence.)
			usable = s.depth < len(pts)
		}
		if usable {
			c.popSnapsTo(i + 1)
			return s
		}
	}
	return nil
}

// chsnapExciseBelow drops every snapshot whose prefix takes, at point i, a
// branch porPruneSweep just excised from the schedule (ch.limit[i] clamped
// to 1). Snapshot prefixes are nested and captured along the live path —
// which stays on the clamped point's un-flipped branch — so this is a
// defensive no-op in practice, but the invariant that no surviving entry
// hangs off unreachable work is cheap to enforce and load-bearing for the
// restore path's correctness argument. Every entry deeper than i shares the
// log's decision at i, so they stay or go together.
func (c *Checker) chsnapExciseBelow(i int) {
	if i >= len(c.snapPts) || c.snapPts[i] == c.chooser.points[i] {
		return
	}
	n := len(c.snaps)
	for n > 0 && c.snaps[n-1].depth > i {
		n--
	}
	c.popSnapsTo(n)
}

// newSnap starts a capture at chooser depth `depth` with the state every
// snapshot kind records. It extends the shared logs by what happened since
// the top entry — the decisions past its depth, and the trace operations
// added since (at most TraceLen of them: the ones the ring still holds) —
// so a capture's cost does not grow with the choice depth. The caller fills
// in kind-specific fields and pushes the entry.
func (c *Checker) newSnap(kind snapKind, depth int) *snapEntry {
	s := c.getSnapEntry()
	s.kind = kind
	s.depth = depth
	c.snapPts = append(c.snapPts, c.chooser.points[len(c.snapPts):depth]...)
	if c.trace != nil {
		since := 0
		if n := len(c.snaps); n > 0 {
			since = c.snaps[n-1].traceTotal
		}
		c.snapTrace = c.trace.appendSince(c.snapTrace, since)
		s.traceTotal = c.trace.total
	}
	s.traceLen = len(c.snapTrace)
	s.mark = c.stack.Mark()
	s.seq = c.seq
	s.fpCount = c.fpCount
	s.preDone = c.preDone
	s.high = c.alloc.HighWater()
	s.stepsDelta = c.totalSteps - c.snapBaseSteps
	if c.col != nil {
		vec := c.col.Counters().Diff(c.snapBase)
		// Excluded from the replayed delta: per-scenario bookkeeping the
		// restore path accounts for itself (Scenarios is counted per
		// scenario regardless; Steps covers the in-flight segment via
		// stepsDelta; ChoicesReplayed is the skipped-prefix length, which
		// differs from what the capture run recorded as fresh), wall-clock
		// phase timings, and the engine's own counters — both the failure-
		// point engine's and the choice-point stack's.
		vec.Clear(obs.Scenarios, obs.Steps,
			obs.PreFailureNs, obs.PostFailureNs, obs.ReplayNs,
			obs.ChoicesReplayed, obs.ChoicesFresh,
			obs.SnapshotCaptures, obs.SnapshotRestores, obs.SnapshotRestoreNs,
			obs.ScenariosPruned, obs.FingerprintHits, obs.FingerprintMisses,
			obs.ChoicesRestored, obs.ChoiceSnapCaptures, obs.ChoiceRestores,
			obs.ChoiceRestoreNs, obs.ReplayStepsSaved, obs.RefinementsSkipped,
			obs.ReplaySteps)
		s.vec = vec
	} else {
		s.vec = obs.CounterVec{}
	}
	if len(c.scenPerf) > 0 {
		s.perf = make(map[string]*PerfIssue, len(c.scenPerf))
		for k, p := range c.scenPerf {
			cp := *p
			s.perf[k] = &cp
		}
	}
	if len(c.scenMulti) > 0 {
		s.multi = make(map[string]*MultiRF, len(c.scenMulti))
		for k, m := range c.scenMulti {
			cm := *m
			s.multi[k] = &cm
		}
	}
	return s
}

// captureSnap records the current scenario state if the engine is active
// and no snapshot exists at this depth yet (a restored prefix re-passes the
// shallower capture sites with the condition already satisfied).
func (c *Checker) captureSnap(kind snapKind) {
	if !c.snapActive {
		return
	}
	depth := c.chooser.cursor
	if n := len(c.snaps); n > 0 && depth <= c.snaps[n-1].depth {
		return
	}
	s := c.newSnap(kind, depth)
	c.snaps = append(c.snaps, s)
	c.col.Inc(obs.SnapshotCaptures)
	c.col.NotePeak(obs.PeakSnapshotBytes, c.stack.RetainedBytes())
}

// restoreSnapshot rewinds the checker to a captured state and re-applies the
// exploration-level deltas the skipped prefix would have accumulated. It
// reports whether the scenario resumes crashed (fpSnap: the failure decision
// at s.depth is taken) or at the completed pre-failure execution (endSnap).
func (c *Checker) restoreSnapshot(s *snapEntry) (crashed bool) {
	var t0 time.Time
	if c.col != nil {
		t0 = time.Now()
	}
	c.stack.Rewind(s.mark)
	// The rewound execution's guest segment is never resumed (fpSnap restores
	// re-inject the failure at the fail point; endSnap restores re-run nothing)
	// so no value-log events can arrive before pushExecution re-arms this.
	c.segLog = nil
	c.seq = s.seq
	c.fpCount = s.fpCount
	c.preDone = s.preDone
	c.alloc.Truncate(s.high)
	if c.trace != nil {
		c.trace.restoreTail(c.snapTrace[:s.traceLen], s.traceTotal)
	}
	cursor := s.depth
	if s.kind == fpSnap {
		cursor++ // the skipped prefix consumed the fail decision too
	}
	c.chooser.cursor = cursor
	c.totalSteps += s.stepsDelta
	c.execsPost += s.mark.Depth - 1
	c.bugEndedSegment = false
	for k, p := range s.perf {
		c.applyPerfDelta(k, p)
	}
	for k, m := range s.multi {
		cm := *m
		c.stats.mergeMultiRF(k, &cm)
		live := cm
		c.scenMulti[k] = &live
	}
	if c.col != nil {
		c.col.AddCounters(s.vec)
		c.col.Add(obs.Steps, s.stepsDelta)
		c.col.Add(obs.ChoicesReplayed, int64(cursor))
		// Satisfied by restore, not by re-execution: reported separately as
		// choices_restored (and folded back for the canonical comparison).
		c.col.Add(obs.ChoicesRestored, int64(cursor))
		c.col.Inc(obs.SnapshotRestores)
		ns := time.Since(t0).Nanoseconds()
		c.col.Add(obs.SnapshotRestoreNs, ns)
		c.col.Observe(obs.TimerSnapshotRestore, ns)
	}
	return s.kind == fpSnap
}

// captureChoiceSnap records the in-flight recovery-segment state immediately
// before a post-failure multi-candidate read-from choice is consumed. Called
// from resolveByte after candidate enumeration (and the POR elision check)
// but before any load-path accounting, so the arrival byte's own counters are
// charged exactly once — live, by the resuming scenario.
func (c *Checker) captureChoiceSnap() {
	if !c.chsnapActive || c.stack.Top().ID == 0 {
		// Pre-failure loads replay from fpSnap/endSnap entries; the stack
		// only amortizes post-failure choices.
		return
	}
	depth := c.chooser.cursor
	if n := len(c.snaps); n > 0 && depth <= c.snaps[n-1].depth {
		return
	}
	s := c.newSnap(choiceSnap, depth)
	s.segSteps = c.steps
	s.segDirty = c.dirty
	s.execID = c.stack.Top().ID
	s.logTarget = len(c.segLogs[s.execID-1])
	// Per-thread TSO buffering state in scheduler order. The capturing
	// thread holds the turn, so parked threads' states are quiescent; the
	// scheduler lock pins the thread list (Spawn appends under it). Growth
	// extends into spare capacity without `append` over live elements, which
	// would zero their pooled backing slices.
	c.sched.mu.Lock()
	threads := append(c.thScratch[:0], c.sched.threads...)
	c.sched.mu.Unlock()
	c.thScratch = threads
	for cap(s.tso) < len(threads) {
		s.tso = append(s.tso[:cap(s.tso)], tso.Snapshot{})
	}
	s.tso = s.tso[:len(threads)]
	for i, t := range threads {
		t.ts.CaptureInto(&s.tso[i])
	}
	s.lsK, s.lsV = s.lsK[:0], s.lsV[:0]
	if c.opts.FlagPerfIssues {
		for a, seq := range c.lastStore {
			s.lsK = append(s.lsK, a)
			s.lsV = append(s.lsV, seq)
		}
	}
	c.snaps = append(c.snaps, s)
	c.col.Inc(obs.ChoiceSnapCaptures)
	c.col.NotePeak(obs.PeakSnapshotBytes, c.stack.RetainedBytes())
}

// restoreChoiceSnap rewinds the checker to a captured choice point and
// re-enters the in-flight recovery segment in fast-forward mode (see the
// header comment). It reports whether the resumed segment crashed at a
// further failure point, exactly as a live runSegment call would.
func (c *Checker) restoreChoiceSnap(s *snapEntry) (crashed bool) {
	var t0 time.Time
	if c.col != nil {
		t0 = time.Now()
	}
	c.stack.Rewind(s.mark)
	c.seq = s.seq
	c.fpCount = s.fpCount
	c.preDone = s.preDone
	c.alloc.Truncate(s.high)
	if c.trace != nil {
		c.trace.restoreTail(c.snapTrace[:s.traceLen], s.traceTotal)
	}
	if c.opts.FlagPerfIssues {
		clear(c.lastStore)
		for i, a := range s.lsK {
			c.lastStore[a] = s.lsV[i]
		}
	}
	// The arrival consumes points[s.depth] as an ordinary replayed choose()
	// — validating kind and arity against the recorded vector — so the
	// cursor is set to the choice point itself, not past it.
	c.chooser.cursor = s.depth
	c.totalSteps += s.stepsDelta
	c.execsPost += s.mark.Depth - 1
	c.bugEndedSegment = false
	for k, p := range s.perf {
		c.applyPerfDelta(k, p)
	}
	for k, m := range s.multi {
		cm := *m
		c.stats.mergeMultiRF(k, &cm)
		live := cm
		c.scenMulti[k] = &live
	}
	if c.col != nil {
		c.col.AddCounters(s.vec)
		// stepsDelta counts the whole skipped prefix including the captured
		// segment's first segSteps ops; those segSteps re-run in fast-forward
		// and are re-added by the segment-end accounting, so the restore
		// contributes the difference.
		c.col.Add(obs.Steps, s.stepsDelta-int64(s.segSteps))
		c.col.Add(obs.ChoicesReplayed, int64(s.depth))
		c.col.Add(obs.ChoicesRestored, int64(s.depth))
		c.col.Inc(obs.ChoiceRestores)
		c.col.Add(obs.ReplayStepsSaved, s.stepsDelta-int64(s.segSteps))
		ns := time.Since(t0).Nanoseconds()
		c.col.Add(obs.ChoiceRestoreNs, ns)
		c.col.Observe(obs.TimerChoiceRestore, ns)
	}
	// Truncate the segment's value log to the capture point: the resumed
	// live suffix appends its own events from here, and any deeper captures
	// recorded by the previous sibling are dead.
	c.segLogs[s.execID-1] = c.segLogs[s.execID-1][:s.logTarget]
	c.segLog = &c.segLogs[s.execID-1]
	c.ffwd = ffwdState{
		active: true,
		log:    c.segLogs[s.execID-1],
		target: s.logTarget,
		snap:   s,
	}
	return c.runSegment(c.prog.Recover)
}

// ffwdArrive switches the fast-forward replay to live execution: the
// captured segment scalars and per-thread TSO states are installed and the
// pending operation (the load whose resolveByte call captured the snapshot)
// proceeds normally.
func (c *Checker) ffwdArrive() {
	s := c.ffwd.snap
	c.steps = s.segSteps
	c.dirty = s.segDirty
	c.sched.mu.Lock()
	threads := append(c.thScratch[:0], c.sched.threads...)
	c.sched.mu.Unlock()
	c.thScratch = threads
	if len(threads) != len(s.tso) {
		panic(engineError{fmt.Sprintf(
			"choice-snapshot fast-forward diverged: %d threads at arrival, captured %d",
			len(threads), len(s.tso))})
	}
	for i, t := range threads {
		t.ts.RestoreFrom(&s.tso[i])
	}
	c.ffwd = ffwdState{}
}

// ffwdLoad feeds one whole load (or RMW read) during fast-forward. live
// reports that the cursor reached the capture point: the arrival was
// installed and the operation — whose first byte hosts the captured choice —
// was resolved live, re-logging itself into the truncated value log.
func (c *Checker) ffwdLoad(t *thread, a pmem.Addr, size int) (v uint64, live bool) {
	f := &c.ffwd
	if f.cursor >= f.target {
		c.ffwdArrive()
		return c.loadOp(t, a, size), true
	}
	ev := f.log[f.cursor]
	if ev.kind != evLoad || ev.addr != a || int(ev.size) != size {
		panic(engineError{fmt.Sprintf(
			"choice-snapshot fast-forward diverged: log[%d] = {kind %d, addr %#x, size %d}, replay loads %#x/%d",
			f.cursor, ev.kind, ev.addr, ev.size, a, size)})
	}
	f.cursor++
	return ev.val, false
}

// ffwdAlloc feeds one Alloc result during fast-forward. The allocator was
// truncated to the capture high-water mark, which already covers every
// pre-arrival allocation, so the replayed Alloc must not re-advance it.
func (c *Checker) ffwdAlloc() pmem.Addr {
	f := &c.ffwd
	if f.cursor >= f.target {
		// The capture site is always a load byte; running out of log inside
		// any other operation means the replay diverged.
		panic(engineError{"choice-snapshot fast-forward diverged: log exhausted at Alloc"})
	}
	ev := f.log[f.cursor]
	if ev.kind != evAlloc {
		panic(engineError{fmt.Sprintf(
			"choice-snapshot fast-forward diverged: log[%d] kind %d, replay allocates",
			f.cursor, ev.kind)})
	}
	f.cursor++
	return ev.addr
}

// ffwdLimit feeds one PoolLimit result during fast-forward (the live
// allocator already reflects the whole prefix, so the momentary high-water
// value the guest observed must be fed from the log).
func (c *Checker) ffwdLimit() pmem.Addr {
	f := &c.ffwd
	if f.cursor >= f.target {
		panic(engineError{"choice-snapshot fast-forward diverged: log exhausted at PoolLimit"})
	}
	ev := f.log[f.cursor]
	if ev.kind != evLimit {
		panic(engineError{fmt.Sprintf(
			"choice-snapshot fast-forward diverged: log[%d] kind %d, replay reads pool limit",
			f.cursor, ev.kind)})
	}
	f.cursor++
	return ev.addr
}

// noteSegEvent appends one value-log event for the in-flight post-failure
// segment. segLog is non-nil exactly when the choice-point stack is live for
// this scenario and execution is past the first failure (pre-failure segments
// never host a choiceSnap); the boundary sites — beginSnapScenario,
// pushExecution, restoreSnapshot, restoreChoiceSnap — maintain it, keeping
// this per-byte hot path to a single pointer check.
func (c *Checker) noteSegEvent(kind segEventKind, a pmem.Addr) {
	if c.segLog == nil {
		return
	}
	*c.segLog = append(*c.segLog, segEvent{addr: a, kind: kind})
}

// noteSegLoad records one completed load (or RMW read) into the in-flight
// segment's value log — the whole-operation form of noteSegEvent.
func (c *Checker) noteSegLoad(a pmem.Addr, size int, v uint64) {
	if c.segLog == nil {
		return
	}
	*c.segLog = append(*c.segLog, segEvent{addr: a, val: v, kind: evLoad, size: uint8(size)})
}

// applyPerfDelta merges one captured perf-issue delta into the live stats
// and the current scenario's delta, with the canonical count-sum /
// smallest-line rule every other merge path uses.
func (c *Checker) applyPerfDelta(key string, p *PerfIssue) {
	if ex, ok := c.perfIssues[key]; ok {
		ex.Count += p.Count
		if p.Line < ex.Line {
			ex.Line = p.Line
		}
	} else {
		cp := *p
		c.perfIssues[key] = &cp
	}
	live := *p
	c.scenPerf[key] = &live
}

// notePerfDelta mirrors recordPerfIssue into the scenario delta while the
// engine is active, so a snapshot captured later in this scenario can replay
// the prefix's manifestations.
func (c *Checker) notePerfDelta(key string, kind PerfIssueKind, loc string, line pmem.Addr) {
	if p, ok := c.scenPerf[key]; ok {
		p.Count++
		if line < p.Line {
			p.Line = line
		}
		return
	}
	c.scenPerf[key] = &PerfIssue{Kind: kind, Loc: loc, Line: line, Count: 1}
}

// noteMultiDelta mirrors flagMultiRF into the scenario delta. vals is nil
// when the caller short-circuited formatting because the manifestation
// cannot become the global representative — in that case it cannot become
// the merged representative either (the global maximum only grows), so the
// delta only needs the count and candidate maximum.
func (c *Checker) noteMultiDelta(key string, a pmem.Addr, n int, vals []string) {
	d, ok := c.scenMulti[key]
	if !ok {
		d = &MultiRF{Loc: key, Addr: a, Values: vals}
		c.scenMulti[key] = d
	} else if vals != nil && n >= d.Candidates {
		if n > d.Candidates || d.Values == nil ||
			strings.Join(vals, ",") < strings.Join(d.Values, ",") {
			d.Values = vals
			d.Addr = a
		}
	}
	if n > d.Candidates {
		d.Candidates = n
	}
	d.Count++
}
