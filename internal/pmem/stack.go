package pmem

// Stack is the sequence of executions comprising one failure scenario
// (the paper's exec). Execution 0 is the pre-failure execution; each
// injected failure pushes a fresh execution.
type Stack struct {
	execs []*Execution

	// pool supplies executions (and their pages) for Push and receives them
	// back on Recycle; see page.go.
	pool *Pool

	// journaling, when set, records undo information for every interval
	// mutation so the stack can be rewound to a captured Mark — the
	// substrate of the snapshot engine (see journal.go). Store appends need
	// no extra log: the per-execution arena is the append log.
	journaling bool
	ivlog      []ivUndo

	// rewindScratch is the reused buffer Rewind collects surviving refined
	// lines into before recounting their dirty stores.
	rewindScratch []ivUndo

	// refEpoch versions the inputs of the DoRead refinement walk: it is
	// bumped by every effective interval mutation, every Push (the walk's
	// execution range changes), and every Rewind. A lineRec memo stamped
	// with the current epoch proves a repeated refinement of the same
	// ⟨addr, seq⟩ would be a no-op. Starts at 1 so zeroed pooled pages
	// (refEpoch 0) never match.
	refEpoch uint64

	// tracer, when non-nil, receives every effective interval mutation with
	// its provenance — the forensics hook behind per-cache-line persistence
	// timelines. Nil (the default) keeps the zero-overhead path.
	tracer func(IntervalEvent)
}

// IntervalEventKind distinguishes the provenance of an interval mutation.
type IntervalEventKind int

const (
	// FlushRaise is a flush effect on the top execution (clflush or a
	// buffered clflushopt writeback) raising the line's lower bound.
	FlushRaise IntervalEventKind = iota
	// RefineRaise / RefineLower are post-failure constraint refinements
	// (Figure 10, UpdateRanges) narrowing a pre-failure line's interval
	// after an observed load.
	RefineRaise
	RefineLower
)

// IntervalEvent describes one effective mutation of a cache line's
// most-recent-writeback interval: which execution's line moved, the sequence
// bound applied, and the interval before and after.
type IntervalEvent struct {
	Kind   IntervalEventKind
	Exec   int
	Line   Addr
	At     Seq
	Before Interval
	After  Interval
}

// SetIntervalTracer installs (or, with nil, removes) the interval-provenance
// hook. Only effective mutations are reported — a flush or refinement that
// does not move a bound is silent, matching the undo journal's notion of an
// effective mutation.
func (s *Stack) SetIntervalTracer(fn func(IntervalEvent)) { s.tracer = fn }

// NewStack returns a stack containing only the pre-failure execution, backed
// by a private pool (tests and standalone use; the checker recycles stacks
// through a shared per-worker pool via Pool.Recycle).
func NewStack() *Stack {
	return NewPool().NewStack()
}

// Top returns the current (most recent) execution.
func (s *Stack) Top() *Execution { return s.execs[len(s.execs)-1] }

// Prev returns the execution immediately preceding e, or nil if e is the
// oldest execution.
func (s *Stack) Prev(e *Execution) *Execution {
	if e.ID == 0 {
		return nil
	}
	return s.execs[e.ID-1]
}

// Push starts a new execution (a failure occurred) and returns it.
func (s *Stack) Push() *Execution {
	e := s.pool.getExec(len(s.execs))
	s.execs = append(s.execs, e)
	// The refinement walk ranges over execs below the top; a new top
	// extends that range, so prior walk memos no longer cover it.
	s.refEpoch++
	return e
}

// Depth reports how many executions the scenario contains so far.
func (s *Stack) Depth() int { return len(s.execs) }

// At returns the execution with stack index id.
func (s *Stack) At(id int) *Execution { return s.execs[id] }

// Candidate is one store a post-failure load may read from: the execution
// that performed it, and the ⟨val, σ⟩ tuple. Exec == -1 denotes the initial
// contents of the pool (zero) from before the first execution.
type Candidate struct {
	Exec int
	ByteStore
}

// InitialExec is the pseudo execution ID of the pool's initial (zeroed)
// contents.
const InitialExec = -1

// ReadPreFailure computes the set of stores from executions preceding the
// current one that a load of byte address a may read from (Figure 9,
// ReadPreFailure). It walks the stack from the execution below the top
// downward, collecting each execution's candidates, and stops at the first
// execution with a store guaranteed persisted (σ ≤ cl.Begin). If no
// execution settles the search, the pool's initial zero byte is appended as
// a final candidate.
//
// Candidates are ordered newest execution first, and newest store first
// within an execution.
func (s *Stack) ReadPreFailure(a Addr) []Candidate {
	return s.ReadPreFailureInto(a, nil)
}

// ReadPreFailureInto is ReadPreFailure appending into a caller-provided
// buffer (typically a reused scratch slice) to avoid per-load allocation.
func (s *Stack) ReadPreFailureInto(a Addr, out []Candidate) []Candidate {
	return s.readPreFailure(a, out, -1)
}

// readPreFailure is the one Figure 9 walk behind ReadPreFailureInto and
// QuietPrefix. It stops as soon as out holds limit candidates (a negative
// limit never stops it), so a limited walk returns a prefix of the full set.
func (s *Stack) readPreFailure(a Addr, out []Candidate, limit int) []Candidate {
	for id := s.Top().ID - 1; id >= 0; id-- {
		var settled bool
		out, settled = s.execs[id].appendCandidates(a, out, limit)
		if settled || len(out) == limit {
			return out
		}
	}
	return append(out, Candidate{Exec: InitialExec, ByteStore: ByteStore{Val: 0, Seq: 0}})
}

// QuietPrefix resolves the longest leading run of bytes of the load
// [a, a+size), size ≤ 8, that need no side effect: a byte qualifies when the
// top execution's cache holds it, or when ReadPreFailure gives it exactly
// one candidate whose DoRead memo is current. v holds the run's bytes
// little-endian, n its length, and hits the cache hits among them (the rest
// are skipped refinements). It changes nothing but the page-lookup caches,
// so resolving the remaining bytes one at a time afterwards is exact. A load
// crossing a page resolves nothing.
func (s *Stack) QuietPrefix(a Addr, size int) (v uint64, n, hits int) {
	if (a^(a+Addr(size)-1))>>pageShift != 0 {
		return 0, 0, 0
	}
	top := s.Top()
	tp := top.pageFor(a)
	var buf [2]Candidate
	for ; n < size; n++ {
		b := a + Addr(n)
		if tp != nil {
			if i := tp.slots[b&pageMask].tail; i != 0 {
				v |= uint64(top.arena[i-1].val) << (8 * n)
				hits++
				continue
			}
		}
		cands := s.readPreFailure(b, buf[:0], 2)
		if len(cands) != 1 || !s.memoCurrent(b, cands[0]) {
			break
		}
		v |= uint64(cands[0].Val) << (8 * n)
	}
	return v, n, hits
}

// DoRead refines the most-recent-writeback intervals of previous executions
// after the model checker selects candidate c for a load of byte address a
// (Figure 10, DoRead / UpdateRanges). If the chosen store is from the current
// execution there is nothing to refine.
//
// skipped reports that the whole refinement walk was proven redundant by the
// epoch memo and elided: a previous DoRead chose the same ⟨addr, seq⟩ of the
// same execution, and since then no interval moved, no execution was pushed,
// and no rewind happened (refEpoch unchanged) — so every execution the walk
// would visit is frozen below the top and the idempotent refinement would
// move nothing. Update-heavy recovery code re-reading the same recovered
// word makes this the common case.
func (s *Stack) DoRead(a Addr, c Candidate) (skipped bool) {
	top := s.Top()
	if c.Exec == top.ID {
		return false
	}
	if s.memoCurrent(a, c) {
		return true
	}
	s.updateRanges(top.ID-1, a, c)
	// Stamp with the post-walk epoch: the walk's own effective mutations
	// bumped it, and repeating the walk now would be ineffective.
	sl := &s.execs[max(c.Exec, 0)].ensurePage(a).slots[a&pageMask]
	sl.refSeq, sl.refEpoch = c.Seq, s.refEpoch
	return false
}

// memoCurrent is the one memo test: the DoRead memo of candidate c for byte
// a proves that repeating the refinement walk would move nothing. The memo
// lives on the chosen execution's slot for a; InitialExec candidates
// memoize on execution 0, where their Seq 0 cannot collide with a real
// store, whose Seq is >= 1.
func (s *Stack) memoCurrent(a Addr, c Candidate) bool {
	pg := s.execs[max(c.Exec, 0)].pageFor(a)
	if pg == nil {
		return false
	}
	sl := &pg.slots[a&pageMask]
	return sl.refEpoch == s.refEpoch && sl.refSeq == c.Seq
}

// updateRanges walks the executions from execID down to the chosen one
// (Figure 10, UpdateRanges — the paper's recursion expressed as a loop).
func (s *Stack) updateRanges(execID int, a Addr, c Candidate) {
	for ; execID >= 0; execID-- {
		ec := s.execs[execID]
		if c.Exec != execID {
			// The load read from an earlier execution, so execution ec cannot
			// have written this line back after its first store to a (otherwise
			// the load would have observed ec's value or a later one).
			if first, ok := ec.First(a); ok {
				s.lowerEnd(RefineLower, ec, a, first.Seq)
			}
			continue
		}
		// The load read store ⟨val, σ⟩ of execution ec: the line was written
		// back at or after σ and before the next store to a.
		s.raiseBegin(RefineRaise, ec, a, c.Seq)
		s.lowerEnd(RefineLower, ec, a, ec.nextSeqAfter(a, c.Seq))
		return
	}
}
