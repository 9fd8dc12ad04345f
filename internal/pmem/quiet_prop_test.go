package pmem

import (
	"math/rand"
	"testing"
)

// Property test of Stack.QuietPrefix against per-byte resolution. Each trial
// replays one random history into two stacks, asks one for the quiet prefix
// of a random load and resolves the same load byte by byte on the other (the
// clone): top-execution Newest, else ReadPreFailureInto and DoRead of the
// first candidate. Every byte of the prefix must have the clone's value and
// be quiet there — a cache hit, or a single candidate whose memo is stamped
// with the current epoch, so DoRead reports skipped and refEpoch stays put —
// and the byte after the prefix must not be quiet unless the load crosses a
// page. The memo oracle here is written out, not shared with the code under
// test.

// quietOp is one step of a generated history.
type quietOp struct {
	kind byte // 'a' append, 'f' flush, 'p' push, 'r' DoRead, 's' forged memo stamp, 'm' mark, 'w' rewind
	addr Addr
	n    int // append: bytes stored; DoRead, stamp: candidate pick; rewind: mark pick
	val  byte
}

// The address domain straddles a page boundary (and so a line boundary), so
// loads cross pages and bytes of a load fall in different lines.
const (
	quietLo = Addr(0x1000 - 16)
	quietHi = Addr(0x1000 + 16)
)

func quietAddr(rng *rand.Rand) Addr { return quietLo + Addr(rng.Intn(int(quietHi-quietLo))) }

// genQuietHistory draws a history of stores, flushes, pushes (up to three
// executions), DoReads, marks and rewinds, then a random load [a, a+size)
// and a warm-up over its bytes: DoReads, which stamp memos the way the
// checker does, and forged stamps, which reach memo states DoRead alone
// never produces (a current memo on a byte with several candidates) so each
// of QuietPrefix's two tests is exercised on its own.
func genQuietHistory(rng *rand.Rand) (h []quietOp, a Addr, size int) {
	depth := 1
	for range 4 + rng.Intn(36) {
		switch r := rng.Intn(20); {
		case r < 8:
			a := quietAddr(rng)
			n := min(1+rng.Intn(8), int(quietHi-a))
			h = append(h, quietOp{kind: 'a', addr: a, n: n, val: byte(rng.Intn(3))})
		case r < 11:
			h = append(h, quietOp{kind: 'f', addr: quietAddr(rng)})
		case r < 13:
			if depth < 3 {
				h = append(h, quietOp{kind: 'p'})
				depth++
			}
		case r < 16:
			h = append(h, quietOp{kind: 'r', addr: quietAddr(rng), n: rng.Intn(4)})
		case r < 18:
			h = append(h, quietOp{kind: 'm'})
		default:
			h = append(h, quietOp{kind: 'w', n: rng.Intn(4)})
		}
	}
	size = []int{1, 2, 4, 8}[rng.Intn(4)]
	a = quietLo + Addr(rng.Intn(int(quietHi-quietLo)-size+1))
	for range 2 {
		for i := range size {
			switch rng.Intn(4) {
			case 0, 1:
				h = append(h, quietOp{kind: 'r', addr: a + Addr(i), n: rng.Intn(2)})
			case 2:
				h = append(h, quietOp{kind: 's', addr: a + Addr(i), n: rng.Intn(2)})
			}
		}
	}
	return h, a, size
}

// applyQuiet builds the state a history reaches on a fresh journaled stack.
func applyQuiet(h []quietOp) *Stack {
	s := NewStack()
	s.EnableJournal()
	var marks []Mark
	seq := Seq(0)
	for _, op := range h {
		switch op.kind {
		case 'a':
			seq++
			for i := range op.n {
				s.Top().Append(op.addr+Addr(i), op.val, seq)
			}
		case 'f':
			seq++
			s.FlushLine(op.addr, seq)
		case 'p':
			s.Push()
		case 'r':
			cands := s.ReadPreFailure(op.addr)
			s.DoRead(op.addr, cands[op.n%len(cands)])
		case 's':
			cands := s.ReadPreFailure(op.addr)
			c := cands[op.n%len(cands)]
			sl := &s.execs[max(c.Exec, 0)].ensurePage(op.addr).slots[op.addr&pageMask]
			sl.refSeq, sl.refEpoch = c.Seq, s.refEpoch
		case 'm':
			marks = append(marks, s.Mark())
		case 'w':
			if len(marks) > 0 {
				i := op.n % len(marks)
				s.Rewind(marks[i])
				marks = marks[:i+1]
			}
		}
	}
	return s
}

// resolveRef resolves byte b of ref one byte at a time, returning the store
// it reads and whether that was a cache hit and quiet (see the header). A
// byte that is not quiet may change ref.
func resolveRef(t *testing.T, ref *Stack, b Addr) (c Candidate, hit, quiet bool) {
	t.Helper()
	if bs, ok := ref.Top().Newest(b); ok {
		return Candidate{Exec: ref.Top().ID, ByteStore: bs}, true, true
	}
	cands := ref.ReadPreFailureInto(b, nil)
	c = cands[0]
	stamped := false
	if pg := ref.execs[max(c.Exec, 0)].pageFor(b); pg != nil {
		sl := pg.slots[b&pageMask]
		stamped = sl.refEpoch == ref.refEpoch && sl.refSeq == c.Seq
	}
	quiet = len(cands) == 1 && stamped
	epoch := ref.refEpoch
	skipped := ref.DoRead(b, c)
	if quiet && (!skipped || ref.refEpoch != epoch) {
		t.Fatalf("byte %v: DoRead of a stamped single candidate %+v: skipped %v, epoch %d -> %d",
			b, c, skipped, epoch, ref.refEpoch)
	}
	return c, false, quiet
}

func TestQuietPrefixMatchesPerByteResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var loads, crossing, bytes, memoBytes, initialBytes, stops int
	for trial := range 10000 {
		h, a, size := genQuietHistory(rng)
		s, ref := applyQuiet(h), applyQuiet(h)
		epoch := s.refEpoch
		v, n, hits := s.QuietPrefix(a, size)
		if s.refEpoch != epoch {
			t.Fatalf("trial %d: QuietPrefix moved refEpoch %d -> %d", trial, epoch, s.refEpoch)
		}
		loads++
		crosses := a>>pageShift != (a+Addr(size)-1)>>pageShift
		if crosses {
			crossing++
			if n != 0 {
				t.Fatalf("trial %d: load %v/%d crosses a page but resolved %d bytes", trial, a, size, n)
			}
			continue
		}
		refHits := 0
		for i := 0; i <= n && i < size; i++ {
			b := a + Addr(i)
			if i == n {
				// The run is the longest: the byte after it needs a side effect.
				if _, _, quiet := resolveRef(t, ref, b); quiet {
					t.Fatalf("trial %d: load %v/%d: prefix stops at byte %d, which is quiet", trial, a, size, i)
				}
				stops++
				break
			}
			c, hit, quiet := resolveRef(t, ref, b)
			if !quiet {
				t.Fatalf("trial %d: load %v/%d: prefix of %d bytes includes byte %d, which needs a side effect",
					trial, a, size, n, i)
			}
			if got := byte(v >> (8 * i)); got != c.Val {
				t.Fatalf("trial %d: load %v/%d byte %d: prefix reads %#x, per-byte %#x", trial, a, size, i, got, c.Val)
			}
			switch {
			case hit:
				refHits++
			case c.Exec == InitialExec:
				initialBytes++
				memoBytes++
			default:
				memoBytes++
			}
			bytes++
		}
		if refHits != hits {
			t.Fatalf("trial %d: load %v/%d: %d cache hits reported, %d per byte", trial, a, size, hits, refHits)
		}
	}
	// The generator must reach every kind of byte the prefix can hold, and
	// loads that stop it.
	t.Logf("%d loads (%d crossing a page): %d prefix bytes, %d of them memoized (%d initial-contents), %d stops",
		loads, crossing, bytes, memoBytes, initialBytes, stops)
	if crossing < 300 || memoBytes-initialBytes < 1000 || initialBytes < 1000 || bytes-memoBytes < 2000 || stops < 500 {
		t.Errorf("weak coverage: %d crossing loads, %d memoized bytes (%d initial), %d cache hits, %d stops",
			crossing, memoBytes, initialBytes, bytes-memoBytes, stops)
	}
}
