package pmem

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// Property tests of the fingerprint against a reference encoder. The
// reference builds, straight from the definition in fingerprint.go, the
// canonical byte stream of a stack's persisted state — per execution, per
// touched line: the line address, the ascending ranks of Begin and End
// within the line's relevant sequences, and for every touched byte its
// reachable (value, rank) candidates newest-first plus its settled flag. Two
// states must fingerprint equally exactly when their streams are equal.

// refLineStream appends the canonical stream of one touched line.
func refLineStream(out []byte, e *Execution, line Addr) []byte {
	begin, end := Seq(0), SeqInf
	if lr := e.peekLine(line); lr != nil && lr.known {
		begin, end = lr.iv.Begin, lr.iv.End
	}
	var cands [CacheLineSize][]ByteStore
	var touched, settled [CacheLineSize]bool
	rel := []Seq{begin, end}
	for off := range CacheLineSize {
		q := e.Queue(line + Addr(off)) // oldest first
		touched[off] = len(q) > 0
		for i := len(q) - 1; i >= 0; i-- {
			if q[i].Seq >= end {
				continue
			}
			cands[off] = append(cands[off], q[i])
			rel = append(rel, q[i].Seq)
			if q[i].Seq <= begin {
				settled[off] = true
				break
			}
		}
	}
	slices.Sort(rel)
	rel = slices.Compact(rel)
	rank := func(s Seq) uint64 {
		i, _ := slices.BinarySearch(rel, s)
		return uint64(i)
	}
	out = binary.AppendUvarint(out, uint64(line))
	out = binary.AppendUvarint(out, rank(begin))
	out = binary.AppendUvarint(out, rank(end))
	for off := range CacheLineSize {
		if !touched[off] {
			continue
		}
		out = binary.AppendUvarint(out, uint64(off))
		out = binary.AppendUvarint(out, uint64(len(cands[off])))
		for _, c := range cands[off] {
			out = append(out, c.Val)
			out = binary.AppendUvarint(out, rank(c.Seq))
		}
		if settled[off] {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// refStackStream is the canonical stream of a whole stack.
func refStackStream(s *Stack) string {
	var out []byte
	for _, e := range s.execs {
		lines := e.TouchedLines()
		out = binary.AppendUvarint(out, uint64(e.ID))
		out = binary.AppendUvarint(out, uint64(len(lines)))
		for _, l := range lines {
			out = refLineStream(out, e, l)
		}
	}
	return string(out)
}

// histOp is one step of a generated scenario history. Sequence numbers are
// abstract ranks, mapped to concrete sequences on replay, so one history
// replays into order-isomorphic states with different absolute sequences.
type histOp struct {
	kind byte // 'a' append, 'f' flush, 'p' push, 'r' DoRead
	addr Addr
	n    int // append: bytes stored; DoRead: candidate pick
	val  byte
	seq  int
}

// genHistory draws a random history over a few bytes of at most two lines.
// Small domains make distinct histories frequently reach equal states.
func genHistory(rng *rand.Rand, wide bool) []histOp {
	lines := []Addr{0x40, 0x80}
	offs, vals, nops := 3, 2, 1+rng.Intn(7)
	if wide {
		offs, vals, nops = CacheLineSize, 256, 4+rng.Intn(60)
	}
	var h []histOp
	seq, depth := 1, 1
	for range nops {
		a := lines[rng.Intn(len(lines))] + Addr(rng.Intn(offs))
		switch r := rng.Intn(10); {
		case r < 6:
			n := 1 + rng.Intn(2)
			if wide {
				n = 1 + rng.Intn(8)
			}
			if int(a.LineOffset())+n > CacheLineSize {
				n = CacheLineSize - int(a.LineOffset())
			}
			h = append(h, histOp{kind: 'a', addr: a, n: n, val: byte(rng.Intn(vals)), seq: seq})
			seq++
		case r < 8:
			h = append(h, histOp{kind: 'f', addr: a, seq: seq})
			seq += rng.Intn(2)
		case r < 9 && depth < 3:
			h = append(h, histOp{kind: 'p'})
			depth++
		default:
			if depth > 1 {
				h = append(h, histOp{kind: 'r', addr: a, n: rng.Intn(4)})
			}
		}
	}
	return h
}

// replay builds the state a history reaches, mapping abstract sequence k to
// seqOf(k) (which must be strictly increasing).
func replay(h []histOp, seqOf func(int) Seq) *Stack {
	s := NewStack()
	for _, op := range h {
		switch op.kind {
		case 'a':
			for i := range op.n {
				s.Top().Append(op.addr+Addr(i), op.val+byte(i), seqOf(op.seq))
			}
		case 'f':
			s.FlushLine(op.addr, seqOf(op.seq))
		case 'p':
			s.Push()
		case 'r':
			cands := s.ReadPreFailure(op.addr)
			s.DoRead(op.addr, cands[op.n%len(cands)])
		}
	}
	return s
}

func TestFingerprintMatchesReferenceStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	byStream := map[string]uint64{}
	byFP := map[uint64]string{}
	check := func(s *Stack) {
		t.Helper()
		stream, f := refStackStream(s), fp(s)
		if g, ok := byStream[stream]; ok && g != f {
			t.Fatalf("equal reference streams, fingerprints %#x and %#x", g, f)
		}
		if g, ok := byFP[f]; ok && g != stream {
			t.Fatalf("fingerprint %#x shared by distinct reference streams", f)
		}
		byStream[stream], byFP[f] = f, stream
	}
	trials := 0
	for i := range 6000 {
		h := genHistory(rng, i%4 == 0)
		check(replay(h, func(k int) Seq { return Seq(k) }))
		// Sequence shifts: the same history under strictly increasing
		// remappings reaches order-isomorphic states.
		check(replay(h, func(k int) Seq { return Seq(1000 + 7*k) }))
		gaps := make([]Seq, 0, 64)
		check(replay(h, func(k int) Seq {
			for len(gaps) <= k {
				prev := Seq(0)
				if len(gaps) > 0 {
					prev = gaps[len(gaps)-1]
				}
				gaps = append(gaps, prev+1+Seq(rng.Intn(1000)))
			}
			return gaps[k]
		}))
		trials += 3
	}
	// The domains are small enough that most states recur: the check must
	// have compared many equal streams, not only distinct ones.
	if len(byStream) > trials/2 {
		t.Errorf("%d distinct streams in %d states: too few equal pairs exercised", len(byStream), trials)
	}
	if len(byStream) < 1000 {
		t.Errorf("only %d distinct streams: too few distinct states exercised", len(byStream))
	}
}

// recomputeFP is the from-scratch form of an execution's accumulator: the
// XOR of every touched line's hash, and their count.
func recomputeFP(e *Execution) (acc, lines uint64) {
	for id, pg := range e.pages {
		for li := range pg.lines {
			lr := &pg.lines[li]
			if lr.tail != 0 {
				acc ^= e.lineFingerprint(pg, id<<pageShift+Addr(li*CacheLineSize), lr)
				lines++
			}
		}
	}
	return acc, lines
}

func TestFingerprintAccumulatorMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := range 300 {
		s := NewStack()
		s.EnableJournal()
		var marks []Mark
		seq := Seq(1)
		addr := func() Addr { return Addr(0x40*(1+rng.Intn(4)) + rng.Intn(CacheLineSize)) }
		for step := range 200 {
			switch r := rng.Intn(20); {
			case r < 9:
				a := addr()
				s.Top().Append(a, byte(rng.Intn(4)), seq)
				seq++
			case r < 13:
				s.FlushLine(addr(), seq-Seq(rng.Intn(2)))
			case r < 15:
				if s.Depth() > 1 {
					a := addr()
					cands := s.ReadPreFailure(a)
					s.DoRead(a, cands[rng.Intn(len(cands))])
				}
			case r < 16:
				if s.Depth() < 3 {
					s.Push()
				}
			case r < 18:
				marks = append(marks, s.Mark())
			default:
				if len(marks) > 0 {
					i := rng.Intn(len(marks))
					s.Rewind(marks[i])
					marks = marks[:i+1]
				}
			}
			if rng.Intn(3) == 0 {
				_ = fp(s) // folds the dirty lines into the accumulators
			}
			if step%10 != 9 {
				continue
			}
			_ = fp(s)
			for _, e := range s.execs {
				acc, lines := recomputeFP(e)
				if e.fpAcc != acc || e.fpLines != lines || len(e.fpDirty) != 0 {
					t.Fatalf("trial %d step %d exec %d: accumulator (%#x, %d lines, %d queued), recompute (%#x, %d lines)",
						trial, step, e.ID, e.fpAcc, e.fpLines, len(e.fpDirty), acc, lines)
				}
				// The next fingerprint must start from the stores appended
				// after this one, not rescan the arena.
				if e.fpArena != len(e.arena) {
					t.Fatalf("trial %d step %d exec %d: fingerprint consumed %d of %d appends",
						trial, step, e.ID, e.fpArena, len(e.arena))
				}
			}
		}
	}
}
