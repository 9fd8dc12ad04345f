package pmem

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		line Addr
		off  uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{63, 0, 63},
		{64, 64, 0},
		{65, 64, 1},
		{0x1000, 0x1000, 0},
		{0x1033, 0x1000, 0x33},
	}
	for _, c := range cases {
		if got := c.a.Line(); got != c.line {
			t.Errorf("Line(%v) = %v, want %v", c.a, got, c.line)
		}
		if got := c.a.LineOffset(); got != c.off {
			t.Errorf("LineOffset(%v) = %v, want %v", c.a, got, c.off)
		}
	}
}

func TestLinesIteration(t *testing.T) {
	collect := func(a Addr, size uint64) []Addr {
		var out []Addr
		Lines(a, size, func(l Addr) { out = append(out, l) })
		return out
	}
	if got := collect(0, 0); len(got) != 0 {
		t.Errorf("zero size touched %v", got)
	}
	if got := collect(10, 8); len(got) != 1 || got[0] != 0 {
		t.Errorf("within one line: %v", got)
	}
	if got := collect(60, 8); len(got) != 2 || got[0] != 0 || got[1] != 64 {
		t.Errorf("straddling: %v", got)
	}
	if got := collect(64, 129); len(got) != 3 {
		t.Errorf("three lines: %v", got)
	}
	if n := LineCount(60, 8); n != 2 {
		t.Errorf("LineCount = %d, want 2", n)
	}
}

func TestLinesProperty(t *testing.T) {
	// Every byte of [a, a+size) is covered by exactly one reported line.
	f := func(a16 uint16, size8 uint8) bool {
		a, size := Addr(a16), uint64(size8)
		lines := make(map[Addr]bool)
		Lines(a, size, func(l Addr) {
			if l.LineOffset() != 0 || lines[l] {
				return
			}
			lines[l] = true
		})
		for i := uint64(0); i < size; i++ {
			if !lines[(a + Addr(i)).Line()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterval(t *testing.T) {
	iv := NewInterval()
	if iv.Begin != 0 || iv.End != SeqInf {
		t.Fatalf("fresh interval = %v", iv)
	}
	iv.RaiseBegin(10)
	iv.RaiseBegin(5) // must not lower
	if iv.Begin != 10 {
		t.Errorf("Begin = %v, want 10", iv.Begin)
	}
	iv.LowerEnd(100)
	iv.LowerEnd(200) // must not raise
	if iv.End != 100 {
		t.Errorf("End = %v, want 100", iv.End)
	}
	if !iv.Contains(10) || !iv.Contains(99) || iv.Contains(100) || iv.Contains(9) {
		t.Errorf("Contains wrong for %v", iv)
	}
	if iv.Empty() {
		t.Errorf("interval %v reported empty", iv)
	}
	iv.LowerEnd(10)
	if !iv.Empty() {
		t.Errorf("interval %v should be empty", iv)
	}
}

func TestExecutionQueues(t *testing.T) {
	e := NewExecution(0)
	const a = Addr(0x1000)
	if _, ok := e.Newest(a); ok {
		t.Fatal("empty queue reported a newest store")
	}
	e.Append(a, 1, 1)
	e.Append(a, 2, 5)
	e.Append(a, 3, 9)
	if bs, ok := e.Newest(a); !ok || bs.Val != 3 || bs.Seq != 9 {
		t.Errorf("Newest = %v, %v", bs, ok)
	}
	if bs, ok := e.First(a); !ok || bs.Val != 1 || bs.Seq != 1 {
		t.Errorf("First = %v, %v", bs, ok)
	}
	if q := e.Queue(a); len(q) != 3 {
		t.Errorf("queue length %d", len(q))
	}
}

// Figure 2 of the paper: y=1; x=2; clflush; y=3; x=4; y=5; x=6 with x and y
// on the same cache line. Post-failure, x may be 2, 4, or 6.
func figure2() (*Stack, Addr, Addr) {
	s := NewStack()
	e := s.Top()
	const x, y = Addr(0x1000), Addr(0x1008)
	e.Append(y, 1, 1) // y=1
	e.Append(x, 2, 2) // x=2
	e.RaiseLineBegin(x, 3)
	e.Append(y, 3, 4) // y=3
	e.Append(x, 4, 5) // x=4
	e.Append(y, 5, 6) // y=5
	e.Append(x, 6, 7) // x=6
	s.Push()          // power failure
	return s, x, y
}

func vals(cs []Candidate) []byte {
	out := make([]byte, len(cs))
	for i, c := range cs {
		out[i] = c.Val
	}
	return out
}

func TestFigure2ReadSet(t *testing.T) {
	s, x, _ := figure2()
	cands := s.ReadPreFailure(x)
	got := vals(cands)
	want := []byte{6, 4, 2} // newest first
	if len(got) != len(want) {
		t.Fatalf("x candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("x candidates = %v, want %v", got, want)
		}
	}
	// The x=2 candidate settles the search (σ=2 ≤ Begin=3), so the initial
	// zero must not appear.
	for _, c := range cands {
		if c.Exec == InitialExec {
			t.Error("initial-memory candidate leaked past the clflush")
		}
	}
}

// Figure 3: after the recovery execution reads x=4, the writeback interval
// refines to [σ(x=4), σ(x=6)) and y may only be 3 or 5.
func TestFigure3Refinement(t *testing.T) {
	s, x, y := figure2()
	cands := s.ReadPreFailure(x)
	var chosen Candidate
	found := false
	for _, c := range cands {
		if c.Val == 4 {
			chosen, found = c, true
		}
	}
	if !found {
		t.Fatal("x=4 not offered")
	}
	s.DoRead(x, chosen)
	iv := s.At(0).CacheLine(x)
	if iv.Begin != 5 || iv.End != 7 {
		t.Fatalf("refined interval = %v, want [5, 7)", *iv)
	}
	yv := vals(s.ReadPreFailure(y))
	if len(yv) != 2 || yv[0] != 5 || yv[1] != 3 {
		t.Fatalf("y candidates after refinement = %v, want [5 3]", yv)
	}
}

// Reading x=6 (the newest store) proves the line was flushed after every
// store to y, so y must be 5.
func TestFigure2NewestRefinement(t *testing.T) {
	s, x, y := figure2()
	cands := s.ReadPreFailure(x)
	s.DoRead(x, cands[0]) // x=6
	yv := vals(s.ReadPreFailure(y))
	if len(yv) != 1 || yv[0] != 5 {
		t.Fatalf("y candidates = %v, want [5]", yv)
	}
}

// Reading x=2 (the flush-guaranteed store) bounds the writeback before x=4,
// so y may be 1 or 3.
func TestFigure2OldestRefinement(t *testing.T) {
	s, x, y := figure2()
	cands := s.ReadPreFailure(x)
	s.DoRead(x, cands[len(cands)-1]) // x=2
	yv := vals(s.ReadPreFailure(y))
	if len(yv) != 2 || yv[0] != 3 || yv[1] != 1 {
		t.Fatalf("y candidates = %v, want [3 1]", yv)
	}
}

func TestUnflushedLineFallsToInitial(t *testing.T) {
	s := NewStack()
	const a = Addr(0x2000)
	s.Top().Append(a, 7, 1)
	s.Push()
	cands := s.ReadPreFailure(a)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	if cands[0].Val != 7 || cands[1].Exec != InitialExec || cands[1].Val != 0 {
		t.Fatalf("candidates = %v, want store then initial zero", cands)
	}
}

func TestNeverWrittenReadsInitialZero(t *testing.T) {
	s := NewStack()
	s.Push()
	cands := s.ReadPreFailure(Addr(0x3000))
	if len(cands) != 1 || cands[0].Exec != InitialExec {
		t.Fatalf("candidates = %v", cands)
	}
}

// Two failures: a store in execution 1 that was never flushed can disappear,
// exposing execution 0's flushed value — and reading execution 0's value
// refines execution 1's interval to before its first store.
func TestMultiExecutionRefinement(t *testing.T) {
	s := NewStack()
	const a = Addr(0x4000)
	e0 := s.Top()
	e0.Append(a, 1, 1)
	e0.RaiseLineBegin(a, 2)
	e1 := s.Push()
	e1.Append(a, 9, 3)
	s.Push()
	cands := s.ReadPreFailure(a)
	if len(cands) != 2 || cands[0].Val != 9 || cands[1].Val != 1 {
		t.Fatalf("candidates = %v", cands)
	}
	s.DoRead(a, cands[1]) // read execution 0's value
	if end := e1.CacheLine(a).End; end != 3 {
		t.Errorf("execution 1 interval End = %v, want 3", end)
	}
	// A second read of the same byte must now offer only value 1.
	cands = s.ReadPreFailure(a)
	if len(cands) != 1 || cands[0].Val != 1 {
		t.Fatalf("candidates after refinement = %v", cands)
	}
}

func TestDirtyStores(t *testing.T) {
	e := NewExecution(0)
	const a = Addr(0x1000)
	e.Append(a, 1, 1)
	e.Append(a+8, 2, 2)
	e.Append(a+8, 3, 3)
	if n := e.DirtyStores(a.Line()); n != 3 {
		t.Errorf("DirtyStores = %d, want 3", n)
	}
	e.RaiseLineBegin(a, 2)
	if n := e.DirtyStores(a.Line()); n != 1 {
		t.Errorf("DirtyStores after flush = %d, want 1", n)
	}
	lines := e.DirtyLines()
	if len(lines) != 1 || lines[0] != a.Line() {
		t.Errorf("DirtyLines = %v", lines)
	}
	e.RaiseLineBegin(a, 3)
	if lines := e.DirtyLines(); len(lines) != 0 {
		t.Errorf("DirtyLines after full flush = %v", lines)
	}
}

func TestTouched(t *testing.T) {
	e := NewExecution(0)
	e.Append(0x1040, 1, 1)
	e.Append(0x1000, 2, 2)
	e.Append(0x1001, 3, 3)
	addrs := e.TouchedAddrs()
	if len(addrs) != 3 || addrs[0] != 0x1000 || addrs[1] != 0x1001 || addrs[2] != 0x1040 {
		t.Errorf("TouchedAddrs = %v", addrs)
	}
	lines := e.TouchedLines()
	if len(lines) != 2 || lines[0] != 0x1000 || lines[1] != 0x1040 {
		t.Errorf("TouchedLines = %v", lines)
	}
}

// Property: every candidate returned by ReadPreFailure is consistent with
// the line's interval, and DoRead never produces an empty interval.
func TestCandidateConsistencyProperty(t *testing.T) {
	f := func(ops []uint8, flushAt uint8) bool {
		s := NewStack()
		e := s.Top()
		const a = Addr(0x1000)
		seq := Seq(1)
		for i, v := range ops {
			if i > 8 {
				break
			}
			e.Append(a, v, seq)
			seq++
			if uint8(i) == flushAt%8 {
				e.RaiseLineBegin(a, seq)
				seq++
			}
		}
		s.Push()
		for _, c := range s.ReadPreFailure(a) {
			if c.Exec == InitialExec {
				continue
			}
			cl := s.At(c.Exec).CacheLine(a)
			if c.Seq >= cl.End {
				return false
			}
		}
		cands := s.ReadPreFailure(a)
		if len(cands) == 0 {
			return false
		}
		s.DoRead(a, cands[len(cands)-1])
		return !e.CacheLine(a).Empty() || len(e.Queue(a)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if got := Addr(0x1040).String(); got != "0x1040" {
		t.Errorf("Addr.String = %q", got)
	}
	if got := Seq(7).String(); got != "7" {
		t.Errorf("Seq.String = %q", got)
	}
	if got := SeqInf.String(); got != "∞" {
		t.Errorf("SeqInf.String = %q", got)
	}
	iv := Interval{Begin: 3, End: SeqInf}
	if got := iv.String(); got != "[3, ∞)" {
		t.Errorf("Interval.String = %q", got)
	}
}

func TestAddrAdd(t *testing.T) {
	if Addr(0x10).Add(0x30) != 0x40 {
		t.Error("Addr.Add broken")
	}
}

func TestStackPrevAndDepth(t *testing.T) {
	s := NewStack()
	if s.Depth() != 1 || s.Prev(s.Top()) != nil {
		t.Fatal("fresh stack shape wrong")
	}
	e0 := s.Top()
	e1 := s.Push()
	if s.Depth() != 2 || s.Prev(e1) != e0 || s.Top() != e1 {
		t.Fatal("push/prev wrong")
	}
}

func TestLineKnown(t *testing.T) {
	e := NewExecution(0)
	if e.LineKnown(0x1000) {
		t.Fatal("untouched line known")
	}
	e.CacheLine(0x1008)
	if !e.LineKnown(0x1000) {
		t.Fatal("line not known after CacheLine (same line)")
	}
}

// Candidates (the documented reference form) must agree with the
// allocation-free appendCandidates used on the hot path.
func TestCandidatesAgreesWithAppend(t *testing.T) {
	s, x, y := figure2()
	for _, a := range []Addr{x, y} {
		e := s.At(0)
		ref, settledRef := e.Candidates(a)
		fast, settledFast := e.appendCandidates(a, nil, -1)
		if settledRef != settledFast || len(ref) != len(fast) {
			t.Fatalf("forms disagree: %v/%v vs %v/%v", ref, settledRef, fast, settledFast)
		}
		for i := range ref {
			if ref[i] != fast[i].ByteStore || fast[i].Exec != e.ID {
				t.Fatalf("entry %d: %v vs %v", i, ref[i], fast[i])
			}
		}
	}
}

// DoRead with a current-execution candidate is a no-op (nothing to refine).
func TestDoReadCurrentExecutionNoop(t *testing.T) {
	s := NewStack()
	const a = Addr(0x1000)
	s.Top().Append(a, 5, 1)
	before := *s.Top().CacheLine(a)
	s.DoRead(a, Candidate{Exec: s.Top().ID, ByteStore: ByteStore{Val: 5, Seq: 1}})
	if *s.Top().CacheLine(a) != before {
		t.Fatal("DoRead refined the current execution")
	}
}
