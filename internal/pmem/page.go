package pmem

// Paged memory layout — the hot-path storage behind Execution.
//
// The maps-of-slices layout this replaces paid a Go map lookup per *byte*
// for every store, load, flush, and refinement, and allocated fresh maps
// (plus one queue slice per touched byte) for every execution of every
// scenario. The paper's evaluation (§5.3) credits Jaaru's speed to doing
// almost no work per operation, so the bookkeeping is restructured around
// three dense pieces:
//
//   - Pages: the address space is divided into fixed-size pages
//     (addr>>pageShift selects the page, addr&pageMask the slot). A page
//     holds a dense per-byte queue header (slot) for each of its bytes and
//     a per-cache-line interval record (lineRec) for each of its lines, so
//     one map lookup — usually short-circuited by a one-entry page cache —
//     covers pageSize bytes instead of one.
//   - Arena: every ByteStore appended during an execution lands in a single
//     per-execution arena slice. Queue headers hold 1-based chain indices
//     into the arena (0 = empty, so a zeroed page is a valid empty page):
//     slot.tail links newest-first through node.prev, and lineRec.tail
//     links the whole line's stores newest-first through node.linePrev.
//     The arena doubles as the append log the undo journal used to keep
//     separately — node.addr locates the headers to unlink on truncation.
//   - Pool: pages, Executions, and Stacks are recycled across the millions
//     of scenario replays a run performs instead of reallocated. Releasing
//     an execution returns only its touched pages (zeroed, so reuse starts
//     from a valid empty state), keeping reset cost proportional to what
//     the execution actually touched.

const (
	pageShift = 8
	// pageSize is the number of byte slots per page (256 bytes = 4 cache
	// lines): small enough that sparse workloads don't pay for empty slots,
	// large enough that a data structure node and its neighbours share one
	// page-cache hit.
	pageSize     = 1 << pageShift
	pageMask     = pageSize - 1
	linesPerPage = pageSize / CacheLineSize
)

// node is one arena entry: a ByteStore plus the chain links and the byte
// address that let a rewind unlink it from its page headers.
type node struct {
	seq      Seq
	addr     Addr
	prev     int32 // previous store to the same byte (1-based arena index, 0 = none)
	linePrev int32 // previous store to the same cache line
	val      byte
}

// slot is the per-byte queue header: 1-based arena indices of the oldest and
// newest store to the byte (0 = no stores), plus the refinement memo —
// refSeq/refEpoch record the last completed DoRead walk that chose this
// byte's store at refSeq, so a repeat of the identical choice while the
// stack's refinement epoch is unchanged is skipped as a proven no-op (see
// Stack.DoRead). refEpoch == 0 (pooled pages come back zeroed) never
// matches a live epoch, which starts at 1.
type slot struct {
	head, tail int32
	refSeq     Seq
	refEpoch   uint64
}

// lineRec is the per-cache-line record: the most-recent-writeback interval
// (valid once known — the line was flushed or refined), the newest store to
// the line, and the incrementally maintained count of stores past the
// interval's lower bound (see recountDirty).
type lineRec struct {
	iv    Interval
	known bool
	// fpQueued marks the line as waiting on its execution's fingerprint
	// dirty list; fpIn marks fp as the hash currently folded into the
	// execution's accumulator (see fingerprint.go). Pooled pages come back
	// zeroed, and a recycled execution clears its list and accumulator.
	fpQueued bool
	fpIn     bool
	dirty    int32 // stores to the line with seq > iv.Begin
	tail     int32 // newest store to the line (1-based arena index, 0 = none)
	fp       uint64
}

// page holds the dense headers for pageSize consecutive bytes.
type page struct {
	slots [pageSize]slot
	lines [linesPerPage]lineRec
}

// lineIndex returns the index of a's cache line within its page.
func lineIndex(a Addr) int { return int(a&pageMask) / CacheLineSize }

// Pool recycles the scenario-state a checker would otherwise reallocate per
// execution: pages, Executions, and (via Recycle) whole Stacks. A Pool is
// single-owner — one per checker worker — so it needs no locking.
type Pool struct {
	pages []*page
	execs []*Execution
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewStack returns a stack containing only the pre-failure execution, drawing
// its state from the pool.
func (p *Pool) NewStack() *Stack {
	s := &Stack{pool: p, refEpoch: 1}
	s.execs = append(s.execs, p.getExec(0))
	return s
}

// Recycle releases every execution of s back to the pool and returns a stack
// equivalent to a fresh NewStack (journal off, tracer removed), reusing s's
// slices. A nil s yields a new stack, so `s = pool.Recycle(s)` is the
// per-scenario reset idiom.
func (p *Pool) Recycle(s *Stack) *Stack {
	if s == nil {
		return p.NewStack()
	}
	for i := len(s.execs) - 1; i >= 0; i-- {
		p.putExec(s.execs[i])
		s.execs[i] = nil
	}
	s.execs = append(s.execs[:0], p.getExec(0))
	s.ivlog = s.ivlog[:0]
	s.journaling = false
	s.tracer = nil
	// Restart the refinement-memo epoch: released pages are zeroed, so any
	// page surviving in a *different* stack carries refEpoch values from its
	// old life — but pools are single-owner and stacks draw pages only from
	// their own pool, so epoch 1 with zeroed pages is a clean slate.
	s.refEpoch = 1
	return s
}

// getExec returns a reset execution with the given stack index.
func (p *Pool) getExec(id int) *Execution {
	if n := len(p.execs); n > 0 {
		e := p.execs[n-1]
		p.execs[n-1] = nil
		p.execs = p.execs[:n-1]
		e.ID = id
		return e
	}
	return &Execution{ID: id, pages: make(map[Addr]*page), pool: p}
}

// putExec returns an execution to the pool: its touched pages are zeroed and
// recycled, its arena emptied (capacity retained).
func (p *Pool) putExec(e *Execution) {
	for _, pg := range e.pages {
		*pg = page{}
		p.pages = append(p.pages, pg)
	}
	clear(e.pages)
	e.arena = e.arena[:0]
	e.fpDirty = e.fpDirty[:0]
	e.fpAcc, e.fpLines, e.fpArena = 0, 0, 0
	e.EvictedStores = 0
	e.lastPage = nil
	p.execs = append(p.execs, e)
}

// getPage returns an empty page.
func (p *Pool) getPage() *page {
	if n := len(p.pages); n > 0 {
		pg := p.pages[n-1]
		p.pages[n-1] = nil
		p.pages = p.pages[:n-1]
		return pg
	}
	return new(page)
}
