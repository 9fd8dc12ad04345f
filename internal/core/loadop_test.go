package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// quietPrefixProgram's recovery first issues a Load64 with its read-from
// choice on byte 0, where the choice-point stack captures. Then comes a
// Load64 whose bytes 0–2 are single-candidate bytes with current DoRead
// memos — the quiet prefix loadOp resolves in one pass — and whose byte 3
// has two candidates: a choice deeper than the first, on a byte that is not
// the operation's first, so the stack must not capture there. One
// combination of the two choices is a bug, so the bug's choice vector is
// pinned too. The recovery also records into seen how
// many leading bytes of the first Load64 are quiet ("quiet n").
func quietPrefixProgram(seen *sync.Map) Program {
	return Program{
		Name: "quiet-prefix",
		Run: func(c *Context) {
			w, w2 := c.Root(), c.Root().Add(64)
			c.Store64(w, 0x1111111111111111)
			c.Store64(w2, 0x2222222222222222)
			c.Clflush(w, 8)
			c.Clflush(w2, 8)
			c.Store8(w.Add(3), 0xaa)
			c.Store8(w2, 0xbb)
		},
		Recover: func(c *Context) {
			w, w2 := c.Root(), c.Root().Add(64)
			u := c.Load64(w2)
			_ = c.Load16(w) // stamps the memos of bytes 0–1
			_ = c.Load8(w.Add(2))
			if !c.ck.ffwd.active {
				_, n, _ := c.ck.stack.QuietPrefix(w, 8)
				seen.Store(fmt.Sprintf("quiet %d", n), true)
			}
			v := c.Load64(w)
			seen.Store(fmt.Sprintf("%#x/%#x", v, u), true)
			c.Assert(byte(v>>24) != 0xaa || byte(u) != 0xbb, "both late stores persisted")
		},
	}
}

// quietPrefixSummary renders what a run of quietPrefixProgram must
// reproduce: the Result, its bugs' choice vectors, the recovered values, and
// the load-path and choice-stack counters (withEngine adds those that depend
// on the engine's partitioning).
func quietPrefixSummary(r *Result, seen *sync.Map, withEngine bool) string {
	var vals []string
	seen.Range(func(k, _ any) bool {
		if v := k.(string); !strings.HasPrefix(v, "quiet ") {
			vals = append(vals, v)
		}
		return true
	})
	sort.Strings(vals)
	var bugs []string
	for _, b := range r.Bugs {
		msg, _, _ := strings.Cut(b.Message, " at ")
		bugs = append(bugs, fmt.Sprintf("%v %q %s", b.Type, msg, b.Choices))
	}
	m := r.Metrics
	s := fmt.Sprintf("scenarios %d executions %d fpoints %d steps %d rf %d fail %d maxrf %d complete %v\n"+
		"bugs %v\nvalues %v\ncache hits %d refinements %d candidates %d elisions %d",
		r.Scenarios, r.Executions, r.FailurePoints, r.Steps, r.RFChoicePoints, r.FailDecisionPoints,
		r.MaxRFCandidates, r.Complete, bugs, vals,
		m.LoadCacheHits, m.LoadRefinements, m.RFCandidates, m.RFElisions)
	if withEngine {
		s += fmt.Sprintf("\nskipped %d choice captures %d choice restores %d snapshot restores %d",
			m.RefinementsSkipped, m.ChoiceSnapCaptures, m.ChoiceRestores, m.SnapshotRestores)
	}
	return s
}

// TestLoadOpQuietPrefixExact: resolving a load's quiet prefix in one pass
// must leave every choice point, choice-stack capture, counter and Result
// exactly as resolving each byte separately left them. The pinned summaries
// are those of the per-byte load path, serial with the default engine and
// with POR off; Workers: 4 must reproduce the serial run.
func TestLoadOpQuietPrefixExact(t *testing.T) {
	const common = "scenarios 8 executions 9 fpoints 2 steps 68 rf 6 fail 1 maxrf 2 complete true\n" +
		"bugs [assertion failure \"both late stores persisted\" rf[0/2] rf[0/2]]\n" +
		"values [0x0/0x0 0x0/0x2222222222222222 0x1111111111111111/0x0 " +
		"0x1111111111111111/0x2222222222222222 0x1111111111111111/0x22222222222222bb " +
		"0x11111111aa111111/0x2222222222222222 0x11111111aa111111/0x22222222222222bb]\n" +
		"cache hits 0 refinements 152 candidates 168 elisions 0\n" +
		"skipped 24 choice captures 3 choice restores 3 snapshot restores 4"
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"serial", Options{Observe: true}, common},
		{"POR-off", Options{Observe: true, POR: -1}, common},
	} {
		var seen sync.Map
		got := quietPrefixSummary(New(quietPrefixProgram(&seen), tc.opts).Run(), &seen, true)
		if got != tc.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
		if _, ok := seen.Load("quiet 3"); !ok {
			t.Errorf("%s: no scenario loaded the word with a quiet prefix of 3 bytes", tc.name)
		}
	}
	var serialSeen, parSeen sync.Map
	serial := New(quietPrefixProgram(&serialSeen), Options{Observe: true}).Run()
	par := New(quietPrefixProgram(&parSeen), Options{Observe: true, Workers: 4}).Run()
	if got, want := quietPrefixSummary(par, &parSeen, false), quietPrefixSummary(serial, &serialSeen, false); got != want {
		t.Errorf("Workers 4:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, want := par.Metrics.Canonical(), serial.Metrics.Canonical(); got != want {
		t.Errorf("Workers 4: canonical metrics diverge\nserial:   %+v\nparallel: %+v", want, got)
	}
}
