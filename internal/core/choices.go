package core

import (
	"fmt"
	"strings"

	"jaaru/internal/obs"
)

// choiceKind labels the two sources of nondeterminism the checker explores:
// whether to inject a failure at an eligible failure point, and which
// pre-failure store a post-failure load byte reads from.
type choiceKind uint8

const (
	chooseFail choiceKind = iota
	chooseReadFrom
	chooseEvict
)

func (k choiceKind) String() string {
	switch k {
	case chooseFail:
		return "fail"
	case chooseReadFrom:
		return "rf"
	case chooseEvict:
		return "evict"
	default:
		return "?"
	}
}

// choicePoint is one recorded nondeterministic decision.
type choicePoint struct {
	kind choiceKind
	n    int // number of options
	idx  int // option currently being explored
}

// chooser is the replay-based exploration engine's choice stack. A scenario
// run consults it at every nondeterministic point: within the recorded
// prefix it replays, beyond it it appends new points taking option 0.
// advance moves depth-first to the next unexplored branch.
//
// For parallel exploration, each point carries an exploration limit (an
// exclusive upper bound on the options this chooser will itself visit,
// normally n): seed claims a branch prefix whose points are all frozen at
// their recorded option, and splitOff carves unexplored sibling options off
// as new branch prefixes for other workers, lowering the local limit so the
// donor never revisits them.
type chooser struct {
	points []choicePoint
	limit  []int // per-point exclusive exploration bound, limit[i] <= points[i].n
	// aux carries the POR layer's per-point memo (failMemo for failure
	// decisions, nil otherwise), kept in lockstep with points by seed,
	// choose and advance. A point's memo describes state that is a pure
	// function of the choice prefix leading to it, so it stays valid for as
	// long as the point itself survives backtracking.
	aux    []*failMemo
	cursor int
	// memoFree pools the memos of popped points, so a warmed fresh failure
	// point allocates none. Every memo in aux is owned by the chooser.
	memoFree []*failMemo

	// newPoints counts distinct choice points discovered, by kind —
	// exploration statistics for Result.
	newPoints [3]int

	// stable is the number of leading points guaranteed unchanged since the
	// snapshot machinery last validated its entries against this vector
	// (usableSnapshot resets it to MaxInt after a scan): advance only flips
	// the deepest surviving index, and choose only appends, so a snapshot
	// whose depth is <= stable still prefix-matches without comparing.
	// Accumulated as a min so multiple mutations between scans compose.
	stable int

	// col is the owning checker's observability shard (nil when disabled).
	col *obs.Collector
}

// begin resets the replay cursor for a fresh scenario run.
func (ch *chooser) begin() { ch.cursor = 0 }

// seed installs a claimed branch prefix: the next scenario replays exactly
// these decisions and explores fresh points beyond them. Every prefix point
// is frozen (limit = idx+1), so advance never backtracks into territory
// owned by the branch's publisher.
func (ch *chooser) seed(prefix []choicePoint) {
	ch.truncate(0)
	ch.points = append(ch.points, prefix...)
	for _, p := range prefix {
		ch.limit = append(ch.limit, p.idx+1)
		ch.aux = append(ch.aux, nil)
	}
	ch.cursor = 0
	ch.stable = 0
}

// choose returns the option index for the next nondeterministic point, which
// must present the same kind and option count on replay.
func (ch *chooser) choose(kind choiceKind, n int) int {
	if n <= 0 {
		panic(engineError{fmt.Sprintf("choice with %d options", n)})
	}
	if ch.cursor < len(ch.points) {
		p := ch.points[ch.cursor]
		if p.kind != kind || p.n != n {
			panic(engineError{fmt.Sprintf(
				"nondeterministic replay: recorded %v/%d, got %v/%d at %d",
				p.kind, p.n, kind, n, ch.cursor)})
		}
		ch.cursor++
		ch.col.Inc(obs.ChoicesReplayed)
		return p.idx
	}
	ch.points = append(ch.points, choicePoint{kind: kind, n: n})
	ch.limit = append(ch.limit, n)
	ch.aux = append(ch.aux, nil)
	ch.cursor++
	ch.newPoints[kind]++
	ch.col.Inc(obs.ChoicesFresh)
	return 0
}

// seedClaim installs a claimed branch with explicit per-point exploration
// limits and optional POR memos — the general form of seed used by
// distributed exploration. A frozen prefix is the special case
// limits[i] == idx+1; a residual claim requeued after a lease expiry carries
// idx < limit[i] <= n at points whose unexplored siblings the dead worker
// still owned, and the claimant resumes exactly there: the current vector is
// replayed as the first scenario, then advance walks the remaining siblings.
// Memos let the claimant's porPruneSweep re-clamp failure decisions whose
// crash state was already published without re-deriving the fingerprint;
// the chooser takes ownership of them (they join its pool when their points
// are popped).
func (ch *chooser) seedClaim(prefix []choicePoint, limits []int, memos []*failMemo) {
	ch.truncate(0)
	ch.points = append(ch.points, prefix...)
	for i, p := range prefix {
		lim := p.idx + 1
		if limits != nil {
			lim = limits[i]
		}
		ch.limit = append(ch.limit, lim)
		var m *failMemo
		if memos != nil {
			m = memos[i]
		}
		ch.aux = append(ch.aux, m)
	}
	ch.cursor = 0
	ch.stable = 0
}

// claimSnapshot exports the chooser's current claim — points, limits and POR
// memos — as the residual a lease commit publishes: re-seeding the snapshot
// with seedClaim and exploring covers exactly the work this chooser has not
// yet visited (the current vector and every remaining in-limit sibling).
// Limits are exported verbatim: donation lowers must stay lowered (the
// donated subtrees were pushed), and POR clamps must stay clamped (their
// analytic delta is part of the same commit's cumulative stats, so a
// claimant re-applying it would double-count). The memos are the chooser's
// own pooled records: encode them before the chooser moves on.
func (ch *chooser) claimSnapshot() (points []choicePoint, limits []int, memos []*failMemo) {
	points = append([]choicePoint(nil), ch.points...)
	limits = append([]int(nil), ch.limit...)
	for _, m := range ch.aux {
		if m != nil {
			memos = append([]*failMemo(nil), ch.aux...)
			break
		}
	}
	return points, limits, memos
}

// newMemo returns a failMemo for the caller to overwrite, drawn from the
// pool when one is free.
func (ch *chooser) newMemo() *failMemo {
	if n := len(ch.memoFree); n > 0 {
		m := ch.memoFree[n-1]
		ch.memoFree[n-1] = nil
		ch.memoFree = ch.memoFree[:n-1]
		return m
	}
	return new(failMemo)
}

// truncate drops the points from index n on, returning their memos to the
// pool.
func (ch *chooser) truncate(n int) {
	for i := n; i < len(ch.aux); i++ {
		if m := ch.aux[i]; m != nil {
			ch.memoFree = append(ch.memoFree, m)
			ch.aux[i] = nil
		}
	}
	ch.points, ch.limit, ch.aux = ch.points[:n], ch.limit[:n], ch.aux[:n]
}

// advance backtracks depth-first: exhausted trailing points are popped, the
// deepest unexhausted point advances to its next option. It reports false
// when the whole (claimed) space has been explored.
func (ch *chooser) advance() bool {
	for len(ch.points) > 0 {
		i := len(ch.points) - 1
		top := &ch.points[i]
		if top.idx+1 < ch.limit[i] {
			top.idx++
			if i < ch.stable {
				ch.stable = i
			}
			return true
		}
		ch.truncate(i)
	}
	return false
}

// splitOff donates work: it finds the shallowest point with options this
// chooser has not yet visited, returns each such option as an independent
// branch prefix, and lowers the local limit so the donated subtrees are
// never explored here. It returns nil when the chooser holds no splittable
// work. Shallowest-first splitting donates the largest subtrees, the
// standard work-stealing heuristic.
func (ch *chooser) splitOff() []branch {
	for d := range ch.points {
		lo, hi := ch.points[d].idx+1, ch.limit[d]
		if lo >= hi {
			continue
		}
		out := make([]branch, 0, hi-lo)
		for idx := lo; idx < hi; idx++ {
			pts := append([]choicePoint(nil), ch.points[:d+1]...)
			pts[d].idx = idx
			out = append(out, branch{points: pts})
		}
		ch.limit[d] = lo
		return out
	}
	return nil
}

// describe renders the decisions of the current scenario for bug reports,
// e.g. "fail@3 rf[2/4] rf[0/2]" — failed at the 4th eligible failure point,
// then picked candidates 2-of-4 and 0-of-2.
func (ch *chooser) describe() string { return describeChoices(ch.points) }

// describeChoices renders an arbitrary choice vector (see chooser.describe).
func describeChoices(points []choicePoint) string {
	var b strings.Builder
	failIdx := 0
	for _, p := range points {
		switch p.kind {
		case chooseFail:
			if p.idx == 1 {
				fmt.Fprintf(&b, "fail@%d ", failIdx)
			}
			failIdx++
		case chooseReadFrom:
			fmt.Fprintf(&b, "rf[%d/%d] ", p.idx, p.n)
		case chooseEvict:
			if p.idx == 1 {
				b.WriteString("evict ")
			}
		}
	}
	return strings.TrimSpace(b.String())
}
