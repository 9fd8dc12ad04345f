package pmem

// Canonical fingerprinting of post-failure persisted state.
//
// Two failure points are equivalent — their recovery subtrees explore the
// identical set of behaviours — when recovery faces the same reachable state:
// for every byte, the same sequence of reachable candidate values, under
// interval constraints that refine the same way. Absolute sequence numbers do
// not matter for that: the candidate enumeration (Figure 9) and the
// constraint refinement (Figure 10) only ever compare sequence numbers that
// are either reachable store sequences or the line's own interval bounds, and
// never compare sequences across cache lines. Fingerprint therefore hashes,
// per execution and per touched line, the *rank* of each relevant sequence
// within the line's own relevant set {Begin, End} ∪ {reachable store seqs} —
// an order-isomorphism-invariant encoding — together with the store values
// and the absolute byte addresses. Unreachable stores (at or beyond the
// line's End, or older than a settled store) are excluded: they can never be
// enumerated as candidates, and every refinement bound derived from them is
// provably a no-op (an execution whose stores all lie at or beyond End
// contributes no candidates, so its First-store lowerEnd never fires with an
// effective bound; stores older than a settled store are shadowed by it).
//
// Ranks are counted downward from End (rank 0), which is the largest relevant
// sequence, so they fall out of one newest-first walk of the line's arena
// chain — already in sequence order — with no sort:
//
//   - Every store past Begin is on the chain above the first store at or
//     before Begin. The walk visits exactly those, numbering distinct
//     sequences below End 1, 2, …, D as it meets them; Begin takes rank D+1.
//   - Below that point only the newest store of each byte is reachable (its
//     settled candidate), and it is the byte-chain successor of the oldest
//     walked store of the byte, or the byte's newest store if the walk met
//     none, so one pass over the line's 64 byte headers finds them without
//     reading the rest of the history. Their sequences, at most 64 and
//     usually a handful of distinct ones, are ranked below Begin by
//     insertion into a sorted scratch array.
//
// A line's cost is thus proportional to its reachable stores, not to its
// store history. Each store past Begin is packed into one word — byte
// offset, value, rank — and passed through the splitmix64 finalizer; the
// line sums those hashes, which needs no ordering because no two
// candidates share a word. Settled candidates are hashed eight bytes at a
// time, in byte order, as a word of values and a word of ranks relative to
// Begin's. The line address, the touched-byte mask, Begin's rank and the
// sum are folded in through the same finalizer. Those inputs determine the
// canonical per-byte stream — line address, bound ranks, each touched
// byte's (value, rank) candidates newest-first and its settled flag — and
// are determined by it; fingerprint_prop_test.go checks that equivalence
// against a reference encoder of that stream.
//
// Each execution keeps the XOR of its touched lines' hashes and their count
// in an accumulator. Every interval mutation (flush, refinement) and every
// journal rewind queues the line it changes on the execution's dirty list
// (once; lineRec.fpQueued). Store appends cost nothing extra: the arena is
// the execution's append log, so a fingerprint first queues the lines of the
// stores appended since the previous fingerprint (fpArena marks how far it
// got). It then recomputes only the queued lines, swapping each one's old
// hash out of the accumulator and its new hash in. A fingerprint therefore
// costs O(stores and lines changed since the previous one) plus O(stack
// depth): consecutive failure points differ in the few lines stored to or
// flushed in between, and a snapshot restore queues only the lines its
// rewind touched.

// FingerprintSeed is the canonical initial hash state.
const FingerprintSeed = uint64(0xcbf29ce484222325)

// mix64 is the splitmix64 finalizer: a bijection on 64-bit words whose every
// output bit depends on every input bit. The additive constant keeps a zero
// word from hashing to zero.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FingerprintFold folds one salt word into a fingerprint through the same
// finalizer the line hashes use, so a difference in any bit of v reaches
// every bit of the result.
func FingerprintFold(h, v uint64) uint64 { return mix64(h ^ v) }

// candWord packs one open candidate (a store past Begin): byte offset
// within the line (6 bits), value (8 bits), rank (the remaining bits).
func candWord(off Addr, val byte, rank uint64) uint64 {
	return uint64(off) | uint64(val)<<6 | rank<<14
}

// Fingerprint folds a canonical hash of the scenario's persisted state into
// h: every execution currently on the stack, bottom-up. At a failure point
// the top execution's cache is part of the state recovery will read from, so
// all executions participate.
func (s *Stack) Fingerprint(h uint64) uint64 {
	for _, e := range s.execs {
		h = e.fingerprint(h)
	}
	return h
}

// fingerprint folds this execution's reachable persisted state into h: its
// index, its touched-line count, and the XOR of the touched lines' hashes,
// after bringing the accumulator up to date with the dirty-line list.
func (e *Execution) fingerprint(h uint64) uint64 {
	for i := e.fpArena; i < len(e.arena); i++ {
		a := e.arena[i].addr
		e.markFP(&e.pageFor(a).lines[lineIndex(a)], a)
	}
	e.fpArena = len(e.arena)
	for _, line := range e.fpDirty {
		pg := e.pageFor(line)
		lr := &pg.lines[lineIndex(line)]
		lr.fpQueued = false
		if lr.fpIn {
			e.fpAcc ^= lr.fp
			e.fpLines--
		}
		lr.fpIn = lr.tail != 0
		if lr.fpIn {
			lr.fp = e.lineFingerprint(pg, line, lr)
			e.fpAcc ^= lr.fp
			e.fpLines++
		}
	}
	e.fpDirty = e.fpDirty[:0]
	h = FingerprintFold(h, uint64(e.ID)+1)
	h = FingerprintFold(h, e.fpLines)
	return FingerprintFold(h, e.fpAcc)
}

// markFP queues a line whose stores or interval changed for re-hashing at
// the next fingerprint.
func (e *Execution) markFP(lr *lineRec, a Addr) {
	if !lr.fpQueued {
		lr.fpQueued = true
		e.fpDirty = append(e.fpDirty, a.Line())
	}
}

// lineFingerprint computes one line's self-contained canonical hash (see the
// header comment). It depends only on the line's own stores and interval.
func (e *Execution) lineFingerprint(pg *page, line Addr, lr *lineRec) uint64 {
	begin, end := Seq(0), SeqInf
	if lr.known {
		begin, end = lr.iv.Begin, lr.iv.End
	}
	// Walk the stores past Begin newest-first, ranking distinct sequences
	// below End and remembering, per byte, where its chain continues below
	// the walked part.
	var cont [CacheLineSize]int32
	var walked uint64
	var sum, rank uint64
	last := SeqInf
	for i := lr.tail; i != 0; {
		nd := &e.arena[i-1]
		if nd.seq <= begin {
			break
		}
		off := nd.addr & (CacheLineSize - 1)
		walked |= 1 << off
		cont[off] = nd.prev
		if nd.seq < end {
			if nd.seq != last {
				rank++
				last = nd.seq
			}
			sum += mix64(candWord(off, nd.val, rank))
		}
		i = nd.linePrev
	}
	beginRank := rank + 1
	// Settled candidates: the newest store at or before Begin of each
	// touched byte — the chain successor of its oldest walked store, or its
	// newest store if the walk met none. below collects their distinct
	// sequences under Begin, sorted descending, for ranking.
	var settled [CacheLineSize]int32
	var below [CacheLineSize]Seq
	touched, nb := walked, 0
	slots := pg.slots[line&pageMask:][:CacheLineSize]
	for off := range slots {
		j := slots[off].tail
		if walked&(1<<off) != 0 {
			j = cont[off]
		} else if j != 0 {
			touched |= 1 << off
		}
		settled[off] = j
		if j == 0 {
			continue // no store at or before Begin: the byte stays open
		}
		seq := e.arena[j-1].seq
		if seq == begin {
			continue
		}
		k := 0
		for k < nb && below[k] > seq {
			k++
		}
		if k < nb && below[k] == seq {
			continue
		}
		copy(below[k+1:nb+1], below[k:nb])
		below[k] = seq
		nb++
	}
	h := mix64(uint64(line))
	h = FingerprintFold(h, touched)
	h = FingerprintFold(h, beginRank)
	h = FingerprintFold(h, sum)
	// Hash the settled candidates eight bytes to a pair of words, in byte
	// order: their values, and their ranks relative to Begin's (0 at Begin,
	// k+1 for below[k], 0xff for an open or untouched byte — the
	// touched-byte mask, already hashed, tells those apart).
	for g := 0; g < CacheLineSize; g += 8 {
		if byte(touched>>g) == 0 {
			continue
		}
		var vals, ranks uint64
		for b := 0; b < 8; b++ {
			r := uint64(0xff)
			if j := settled[g+b]; j != 0 {
				nd := &e.arena[j-1]
				vals |= uint64(nd.val) << (8 * b)
				r = 0
				if nd.seq != begin {
					for below[r] != nd.seq {
						r++
					}
					r++
				}
			}
			ranks |= r << (8 * b)
		}
		h = FingerprintFold(FingerprintFold(h, vals), ranks)
	}
	return h
}
