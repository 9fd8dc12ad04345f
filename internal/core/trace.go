package core

import (
	"fmt"

	"jaaru/internal/pmem"
)

// TraceOp is one recorded guest operation for bug reports.
type TraceOp struct {
	Thread int
	Kind   string
	Addr   pmem.Addr
	Size   int
	Val    uint64
}

func (o TraceOp) String() string {
	switch o.Kind {
	case "sfence", "mfence":
		return fmt.Sprintf("T%d %s", o.Thread, o.Kind)
	case "clflush", "clflushopt":
		return fmt.Sprintf("T%d %s %v", o.Thread, o.Kind, o.Addr)
	default:
		return fmt.Sprintf("T%d %s %v/%d = %#x", o.Thread, o.Kind, o.Addr, o.Size, o.Val)
	}
}

// traceRing keeps the last N operations of the current scenario. total
// counts every operation added since the scenario started.
type traceRing struct {
	buf   []TraceOp
	next  int
	full  bool
	total int
}

func newTraceRing(n int) *traceRing { return &traceRing{buf: make([]TraceOp, n)} }

func (r *traceRing) reset() { r.next = 0; r.full = false; r.total = 0 }

func (r *traceRing) add(op TraceOp) {
	r.buf[r.next] = op
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns the recorded operations oldest-first.
func (r *traceRing) snapshot() []TraceOp {
	if !r.full {
		out := make([]TraceOp, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]TraceOp, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// appendSince appends to log, oldest-first, the operations added since the
// ring's total was `since` — as many of them as the ring still holds. The
// snapshot engines extend one shared log this way at each capture
// (snapshot.go), so a capture copies at most the operations since the
// previous one.
func (r *traceRing) appendSince(log []TraceOp, since int) []TraceOp {
	k := min(r.total-since, len(r.buf)) // until full, total == next
	if start := r.next - k; start < 0 {
		log = append(log, r.buf[len(r.buf)+start:]...)
		k = r.next
	}
	return append(log, r.buf[r.next-k:r.next]...)
}

// restoreTail rewinds the ring to the state it had when its total was
// `total` and log ended with the last operation it had added — used when a
// scenario resumes from a captured snapshot instead of re-running its
// prefix. log holds at least the min(total, N) operations the ring held.
func (r *traceRing) restoreTail(log []TraceOp, total int) {
	n := copy(r.buf, log[len(log)-min(total, len(r.buf)):])
	r.next, r.full, r.total = n%len(r.buf), n == len(r.buf), total
}

func (c *Checker) traceOp(threadID int, kind string, a pmem.Addr, size int, val uint64) {
	if c.wrec != nil {
		// The forensics recorder keeps the full, never-truncated operation
		// list independently of the ring buffer.
		c.wrec.noteOp(threadID, kind, a, size, val)
	}
	if c.trace == nil {
		return
	}
	c.trace.add(TraceOp{Thread: threadID, Kind: kind, Addr: a, Size: size, Val: val})
}
