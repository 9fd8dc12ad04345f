package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"jaaru/internal/benchlist"
	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/pmdk"
	"jaaru/internal/recipe"
)

// job is one closed-loop request: explore one guest program to a verdict and
// check the verdict against the job's known answer.
type job struct {
	name  string
	spec  dist.ProgSpec
	prog  core.Program
	opts  core.Options
	check func(*core.Result) error
}

// entry is one program family of a sweep: a benchlist benchmark and the
// sizes (its Build argument) the seed draws from.
type entry struct {
	bench string
	sizes []int
}

// insertSweep holds the bug-free variants of the six RECIPE structures, the
// five PMDK maps and the PM server, at key counts that explore in about
// 1-100 ms each with the default options.
var insertSweep = []entry{
	{"cceh", []int{16, 24, 32, 48}},
	{"fastfair", []int{12, 16, 24, 32}},
	{"part", []int{6, 8, 12, 16}},
	{"bwtree", []int{8, 16, 24, 32}},
	{"clht", []int{12, 16, 24, 32}},
	{"masstree", []int{10, 16, 24, 32}},
	{"btree", []int{4, 6, 8, 12}},
	{"ctree", []int{4, 6, 8, 12}},
	{"rbtree", []int{4, 6, 8, 12}},
	{"hashmap_atomic", []int{4, 6, 8, 12}},
	{"hashmap_tx", []int{4, 6, 8, 12}},
	{"pmserver", []int{2, 4, 6, 8}},
}

// updateRecur holds the update-heavy programs; a size n rewrites three keys
// for 2n rounds.
var updateRecur = []entry{
	{"cceh-update", []int{10, 20, 40, 60, 80}},
	{"clht-update", []int{10, 20, 40, 60, 80}},
}

// oracle is the reference engine setting of the known-answer checks: serial
// full replay with no snapshots and no partial-order reduction. Every engine
// the timed runs use must reproduce its result exactly.
var oracle = core.Options{Snapshots: -1, ChoiceSnapshots: -1, POR: -1}

// The bug-hunt options are those cmd/jaaru-bugs uses for each suite.
var (
	pmdkBugOpts   = core.Options{FlagMultiRF: true, StopAtFirstBug: true}
	recipeBugOpts = core.Options{FlagMultiRF: true, StopAtFirstBug: true, MaxSteps: 20_000}
)

// stream is a workload's job list, generated from the seed one round at a
// time as the closed loop consumes it.
type stream struct {
	all   []*job // every distinct job a round may draw
	rng   *rand.Rand
	round func(*rand.Rand) []*job
	jobs  []*job
}

func (s *stream) at(i int) *job {
	for len(s.jobs) <= i {
		s.jobs = append(s.jobs, s.round(s.rng)...)
	}
	return s.jobs[i]
}

// sweep builds a job for every size of every entry, checked against the
// oracle's result, and returns a stream whose rounds visit every entry once
// in seeded order. Each entry takes its sizes in a seeded order, drawn anew
// each time it has taken them all, so every size of an entry runs equally
// often: seeds differ in the order of the jobs, hardly in their mix.
func sweep(seed int64, entries []entry, cfg config) (*stream, error) {
	byEntry := make([][]*job, len(entries))
	for i, e := range entries {
		b := benchlist.Find(e.bench)
		if b == nil {
			return nil, fmt.Errorf("no benchmark %q", e.bench)
		}
		sizes := e.sizes
		if cfg.tiny {
			sizes = sizes[:1]
		}
		for _, n := range sizes {
			prog := b.Build(n, false)
			ref := core.New(prog, oracle).Run()
			if err := clean(ref); err != nil {
				return nil, fmt.Errorf("%s n=%d: oracle: %w", e.bench, n, err)
			}
			if cfg.plant {
				// A planted wrong answer: one scenario more than the oracle found.
				planted := *ref
				planted.Scenarios++
				ref = &planted
			}
			byEntry[i] = append(byEntry[i], &job{
				name:  fmt.Sprintf("%s/%d", e.bench, n),
				spec:  dist.ProgSpec{Bench: e.bench, N: n},
				prog:  prog,
				check: func(r *core.Result) error { return matchesOracle(ref, r) },
			})
		}
	}
	pending := make([][]*job, len(byEntry)) // sizes not yet taken this cycle
	return &stream{
		all: slices.Concat(byEntry...),
		rng: rand.New(rand.NewSource(seed)),
		round: func(rng *rand.Rand) []*job {
			var round []*job
			for _, i := range rng.Perm(len(byEntry)) {
				if len(pending[i]) == 0 {
					pending[i] = shuffled(rng, byEntry[i])
				}
				round = append(round, pending[i][0])
				pending[i] = pending[i][1:]
			}
			return round
		},
	}, nil
}

// bugHunt builds one job per seeded bug of Figures 12 and 13 and returns a
// stream whose rounds visit all of them in seeded order.
//
// A job passes when its first bug is of a type the case expects. Jobs stop
// at the first bug, as in cmd/jaaru-bugs, and for PMDK bugs #1 and #4 the
// first bug found is a different symptom of the same missing flush than the
// one the case's Label names. So a case with a Label is also explored in
// full once during set-up, as the PMDK tests do: that exploration must show
// a bug of an expected type whose message contains the Label, and every
// timed job's first bug must be one of the bugs it found.
func bugHunt(seed int64, cfg config) (*stream, error) {
	var jobs []*job
	for _, bc := range pmdk.BugCases() {
		prog := bc.Program()
		expect := bc.Expect
		var known map[string]bool
		if bc.Label != "" {
			full := core.New(prog, core.Options{FlagMultiRF: true}).Run()
			known = make(map[string]bool)
			labelled := false
			for _, b := range full.Bugs {
				known[bugKey(b)] = true
				labelled = labelled || slices.Contains(expect, b.Type) && strings.Contains(b.Message, bc.Label)
			}
			if !labelled {
				return nil, fmt.Errorf("pmdk bug #%d: full exploration shows no %v bug at %q", bc.ID, expect, bc.Label)
			}
		}
		jobs = append(jobs, &job{name: fmt.Sprintf("pmdk-bug-%d", bc.ID), prog: prog, opts: pmdkBugOpts, check: expectBug(expect, known)})
	}
	for _, bc := range recipe.BugCases() {
		jobs = append(jobs, &job{name: fmt.Sprintf("recipe-bug-%d", bc.ID), prog: bc.Program(), opts: recipeBugOpts, check: expectBug(bc.Expect, nil)})
	}
	if cfg.tiny {
		jobs = jobs[:3]
	}
	// Warm up: run every case once, so the first timed round does not pay
	// for cold caches.
	for _, j := range jobs {
		if err := j.check(core.New(j.prog, j.opts).Run()); err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
	}
	if cfg.plant {
		// A planted wrong answer: a bug type the checker never reports for
		// a guest program.
		jobs[0].check = expectBug([]core.BugType{core.BugEngine}, nil)
	}
	return &stream{
		all:   jobs,
		rng:   rand.New(rand.NewSource(seed)),
		round: func(rng *rand.Rand) []*job { return shuffled(rng, jobs) },
	}, nil
}

// shuffled returns the jobs in a seeded order.
func shuffled(rng *rand.Rand, jobs []*job) []*job {
	out := make([]*job, len(jobs))
	for i, p := range rng.Perm(len(jobs)) {
		out[i] = jobs[p]
	}
	return out
}

func bugKey(b *core.BugReport) string { return b.Type.String() + "|" + b.Message }

// expectBug is the known answer of a seeded bug: the first bug reported has
// one of the expected types and, when known is non-nil, is one of the bugs
// in it.
func expectBug(expect []core.BugType, known map[string]bool) func(*core.Result) error {
	return func(r *core.Result) error {
		if !r.Buggy() {
			return errors.New("no bug found")
		}
		b := r.Bugs[0]
		if !slices.Contains(expect, b.Type) {
			return fmt.Errorf("first bug %v, want one of %v", b, expect)
		}
		if known != nil && !known[bugKey(b)] {
			return fmt.Errorf("first bug %v is not among the full exploration's bugs", b)
		}
		return nil
	}
}

// clean is the known answer of a bug-free program: no bug, full exploration.
func clean(r *core.Result) error {
	if r.Buggy() {
		return fmt.Errorf("reported %d bugs, first %v", len(r.Bugs), r.Bugs[0])
	}
	if !r.Complete {
		return errors.New("exploration incomplete")
	}
	return nil
}

// matchesOracle checks a bug-free program's result: clean, and equal to the
// oracle's on the fields cmd/jaaru-perf's distMatch compares (wall time and
// observability metrics aside: timed runs collect none).
func matchesOracle(ref, r *core.Result) error {
	if err := clean(r); err != nil {
		return err
	}
	type counts struct {
		scen, exec, fp, rfcp, fdp, maxrf int
		steps                            int64
	}
	want := counts{ref.Scenarios, ref.Executions, ref.FailurePoints, ref.RFChoicePoints, ref.FailDecisionPoints, ref.MaxRFCandidates, ref.Steps}
	got := counts{r.Scenarios, r.Executions, r.FailurePoints, r.RFChoicePoints, r.FailDecisionPoints, r.MaxRFCandidates, r.Steps}
	if got != want {
		return fmt.Errorf("result %+v differs from the oracle's %+v", got, want)
	}
	return nil
}
