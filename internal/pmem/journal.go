package pmem

// Undo journaling for the snapshot engine (see internal/core/snapshot.go).
//
// The paper's Jaaru amortizes the shared pre-failure execution with fork():
// every failure scenario resumes from a cheap process snapshot instead of
// re-running the program. Our deterministic-replay substitution gets the
// same amortization by making the scenario Stack rewindable:
//
//   - Per-byte store queues are append-only and live in one per-execution
//     arena (page.go), so a snapshot shares them by reference and records
//     only the arena length. Each arena node carries its byte address, so
//     truncation back to a recorded length unlinks the popped stores from
//     their page headers in O(appends undone) — the arena doubles as the
//     append log a journal would otherwise keep separately.
//   - Per-cache-line intervals are NOT append-only: post-failure constraint
//     refinement (DoRead/updateRanges) raises Begin and lowers End of
//     pre-failure lines in place. Every effective interval mutation is
//     therefore recorded in an undo journal holding the pre-mutation value,
//     and a rewind plays the journal backwards. Because the per-line
//     dirty-store counter depends on Begin, a rewind recounts the dirty
//     stores of every surviving line whose interval it restored (after the
//     arena truncation, so the count sees the final store chain).
//   - Executions pushed after a snapshot are simply popped back to the pool;
//     their stores and intervals die with them (interval undo entries
//     referencing them are applied before the pool zeroes their pages, while
//     the pointers are still live — harmless).
//
// Lazily materialized cache lines (CacheLine creating the vacuous [0, ∞))
// are deliberately not journaled: a rewind restores any refined line to its
// recorded bounds, and a line materialized after the mark merely remains
// known with its vacuous interval, which is semantically identical to an
// unknown line for candidate enumeration.

// ivUndo is one undo-journal entry: the line record's interval value before
// a mutation, plus the owning execution (to recount dirty stores on rewind
// and to skip records of popped executions).
type ivUndo struct {
	e    *Execution
	rec  *lineRec
	line Addr
	old  Interval
}

// Mark identifies a rewindable point in a journaled Stack's history.
type Mark struct {
	// Depth is the number of executions on the stack.
	Depth int
	// TopAppends is the arena length of the then-top execution. Only the
	// top execution receives appends, so deeper marks never need it.
	TopAppends int
	// Intervals is the interval undo-journal length.
	Intervals int
}

// EnableJournal switches the stack into journaling mode: subsequent store
// appends and interval mutations become rewindable via Mark/Rewind. It must
// be called before any mutation that a later Rewind is expected to undo
// (in practice: right after NewStack).
func (s *Stack) EnableJournal() { s.journaling = true }

// Journaling reports whether the stack records undo information.
func (s *Stack) Journaling() bool { return s.journaling }

// Mark captures the current rewind point. The stack must be journaling.
func (s *Stack) Mark() Mark {
	return Mark{
		Depth:      len(s.execs),
		TopAppends: len(s.Top().arena),
		Intervals:  len(s.ivlog),
	}
}

// Rewind restores the stack to the state captured by m: interval mutations
// performed since the mark are undone newest-first, executions pushed since
// are popped back to the pool, stores appended to the then-top execution
// since are truncated away, and the dirty-store counters of the surviving
// restored lines are recomputed last (recounting is idempotent and must see
// the post-truncation store chains).
func (s *Stack) Rewind(m Mark) {
	surviving := s.rewindScratch[:0]
	for i := len(s.ivlog) - 1; i >= m.Intervals; i-- {
		u := s.ivlog[i]
		u.rec.iv = u.old
		u.e.markFP(u.rec, u.line)
		if u.e.ID < m.Depth {
			surviving = append(surviving, u)
		}
	}
	s.ivlog = s.ivlog[:m.Intervals]
	for i := len(s.execs) - 1; i >= m.Depth; i-- {
		s.pool.putExec(s.execs[i])
		s.execs[i] = nil
	}
	s.execs = s.execs[:m.Depth]
	s.execs[m.Depth-1].truncateArena(m.TopAppends)
	for _, u := range surviving {
		u.e.recountDirty(u.rec)
	}
	s.rewindScratch = surviving[:0]
	// Intervals (and possibly the execution range) moved: refinement memos
	// recorded against the pre-rewind state must stop matching.
	s.refEpoch++
}

// FlushLine applies a flush effect (clflush or a buffered writeback) to the
// top execution's line containing a, journaled: the line's most-recent-
// writeback lower bound is raised to at least `at`.
func (s *Stack) FlushLine(a Addr, at Seq) {
	s.raiseBegin(FlushRaise, s.Top(), a, at)
}

// raiseBegin / lowerEnd are the journaled, dirty-count-maintaining forms of
// Interval.RaiseBegin and Interval.LowerEnd: effective mutations record the
// pre-mutation value and carry their provenance (kind, execution, line) to
// the interval tracer. An unknown line reads as the vacuous [0, ∞) and is
// materialized only by an effective mutation.
func (s *Stack) raiseBegin(kind IntervalEventKind, e *Execution, a Addr, v Seq) {
	lr := e.peekLine(a)
	if lr != nil && lr.known {
		if v <= lr.iv.Begin {
			return
		}
	} else {
		if v == 0 {
			return
		}
		lr = e.ensureLine(a)
	}
	if s.journaling {
		s.ivlog = append(s.ivlog, ivUndo{e: e, rec: lr, line: a.Line(), old: lr.iv})
	}
	s.refEpoch++
	before := lr.iv
	lr.iv.Begin = v
	e.markFP(lr, a)
	e.recountDirty(lr)
	if s.tracer != nil {
		s.tracer(IntervalEvent{
			Kind: kind, Exec: e.ID, Line: a.Line(), At: v, Before: before, After: lr.iv})
	}
}

func (s *Stack) lowerEnd(kind IntervalEventKind, e *Execution, a Addr, v Seq) {
	lr := e.peekLine(a)
	if lr != nil && lr.known {
		if v >= lr.iv.End {
			return
		}
	} else {
		if v == SeqInf {
			return
		}
		lr = e.ensureLine(a)
	}
	if s.journaling {
		s.ivlog = append(s.ivlog, ivUndo{e: e, rec: lr, line: a.Line(), old: lr.iv})
	}
	s.refEpoch++
	before := lr.iv
	lr.iv.End = v
	e.markFP(lr, a)
	if s.tracer != nil {
		s.tracer(IntervalEvent{
			Kind: kind, Exec: e.ID, Line: a.Line(), At: v, Before: before, After: lr.iv})
	}
}

// RetainedBytes estimates the memory retained by the journaled state a
// snapshot shares: live arena store entries plus undo-journal entries
// (both ~24 bytes each). Cheap: O(stack depth).
func (s *Stack) RetainedBytes() int64 {
	if !s.journaling {
		return 0
	}
	var entries int64
	for _, e := range s.execs {
		entries += int64(len(e.arena))
	}
	return (entries + int64(len(s.ivlog))) * 24
}
