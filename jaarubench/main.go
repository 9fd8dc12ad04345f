// Command jaarubench is the repository's end-to-end benchmark. It drives the
// checker only through its public entry points (core.New and Checker.Run,
// core.Minimize and core.BuildWitness, and the internal/dist coordinator and
// workers over the internal/netsim fabric) on one of four seeded workloads:
//
//	insert-sweep  bug-free RECIPE structures, PMDK maps and the PM server
//	update-recur  update-heavy RECIPE programs whose crash states recur
//	bug-hunt      the 25 seeded bugs of Figures 12 and 13
//	dist-fleet    insert-sweep and update-recur jobs through a coordinator
//
// Each workload is a closed loop: one client runs one job at a time, and
// every verdict is checked against the job's known answer. A timed run
// (-trace 0) measures for -seconds and reports the end-to-end metrics; a
// traced run (-trace 1) runs a fixed number of jobs twice, untraced and then
// traced, and reports the per-layer metrics from spans recorded around the
// benchmark's own calls and callbacks plus the counters the checker keeps.
// The last line of standard output is one JSON object with the verdict and
// the metrics; any known-answer failure makes the exit code nonzero.
//
// Usage, from the repository root:
//
//	bash jaarubench/run.sh --workload insert-sweep --seed 1 --seconds 10 --trace 0
//	bash jaarubench/run.sh --workload update-recur --seed 1 --gate
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/obs"
)

const (
	// minJobs is the fewest jobs a timed run measures, so that job_s.p90
	// has at least ten samples beyond it.
	minJobs = 100
	// setupReps is how many times a timed run sets its workload up;
	// setup_s is the median.
	setupReps = 3
	// tracedJobs is the number of jobs in each pass of a traced run. It is
	// fixed, not timed, so the traced run's counts repeat exactly.
	tracedJobs = 100
)

var workloads = []string{"insert-sweep", "update-recur", "bug-hunt", "dist-fleet"}

// config alters a workload for the harness self-test.
type config struct {
	tiny  bool // smallest size of each program, few bug cases
	plant bool // plant a wrong known answer
}

// env is a workload after set-up.
type env struct {
	jobs  *stream
	fleet *fleet // dist-fleet only
}

func setup(workload string, seed int64, cfg config, tr *tracer) (*env, error) {
	var (
		s   *stream
		err error
	)
	switch workload {
	case "insert-sweep":
		s, err = sweep(seed, insertSweep, cfg)
	case "update-recur":
		s, err = sweep(seed, updateRecur, cfg)
	case "bug-hunt":
		s, err = bugHunt(seed, cfg)
	case "dist-fleet":
		if s, err = sweep(seed, slices.Concat(insertSweep, updateRecur), cfg); err != nil {
			return nil, err
		}
		progs := make(map[dist.ProgSpec]core.Program)
		for _, j := range s.all {
			progs[j.spec] = j.prog
		}
		f, err := startFleet(progs, tr)
		return &env{jobs: s, fleet: f}, err
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	return &env{jobs: s}, err
}

func (e *env) close() error {
	if e.fleet == nil {
		return nil
	}
	return e.fleet.stop()
}

// explore runs j to its verdict, in process or through the fleet.
func (e *env) explore(j *job, opts core.Options) (*core.Result, error) {
	if e.fleet != nil {
		return e.fleet.run(j.spec, opts)
	}
	return core.New(j.prog, opts).Run(), nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed jobs and logs the first failures.
type tally struct{ attempted, failed int }

func (t *tally) note(j *job, res *core.Result) {
	t.attempted++
	if err := j.check(res); err != nil {
		t.failed++
		if t.failed <= 10 {
			fmt.Fprintf(os.Stderr, "known-answer failure: job %s: %v\n", j.name, err)
		}
	}
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed the job list is generated from")
	seconds := flag.Float64("seconds", 10, "how long a timed run measures")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	gate := flag.Bool("gate", false, "run the traced run twice in child processes and require its deterministic counts to repeat exactly")
	spans := flag.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	flag.Parse()

	if *gate {
		if err := gateCounts(*workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "jaarubench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		rep *report
		err error
	)
	switch *trace {
	case 0:
		rep, err = timed(*workload, *seed, *seconds, config{})
	case 1:
		rep, err = traced(*workload, *seed, filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)), config{})
	default:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaarubench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s seed %d: %d jobs, %d failed\n", *workload, *seed, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaarubench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// timed sets the workload up setupReps times, then runs its job stream in a
// closed loop for the given seconds (and at least minJobs jobs) with the
// options users run: serial, snapshots, choice stack and POR on, Observe off.
func timed(workload string, seed int64, seconds float64, cfg config) (*report, error) {
	var (
		e      *env
		setups []float64
	)
	for range setupReps {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setup(workload, seed, cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close() // on error paths; the success path checks the error

	runtime.GC()
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	var (
		t         tally
		durs      []float64
		scenarios float64
	)
	start := time.Now()
	for i := 0; i < minJobs || time.Since(start).Seconds() < seconds; i++ {
		j := e.jobs.at(i)
		t0 := time.Now()
		res, err := e.explore(j, j.opts)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.name, err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		scenarios += float64(res.Scenarios)
		t.note(j, res)
		if i == minJobs-1 {
			// The live heap is taken after a fixed number of jobs, between
			// jobs: the fleet keeps every finished job, so a heap taken at
			// the end would grow with the machine's speed.
			runtime.GC()
			runtime.ReadMemStats(&live)
		}
	}
	runtime.ReadMemStats(&after)
	if err := e.close(); err != nil {
		return nil, err
	}

	sorted := slices.Clone(durs)
	slices.Sort(sorted)
	var total float64
	for _, d := range durs {
		total += d
	}
	return &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"job_s.p50":                {quantile(sorted, 0.50), "s"},
			"job_s.p90":                {quantile(sorted, 0.90), "s"},
			"scenarios_per_s":          {scenarios / total, "1/s"},
			"pass_ratio":               {float64(t.attempted-t.failed) / float64(t.attempted), "fraction"},
			"setup_s":                  {median(setups), "s"},
			"alloc_bytes_per_scenario": {float64(after.TotalAlloc-before.TotalAlloc) / scenarios, "B"},
			"live_heap_bytes":          {float64(live.HeapAlloc), "B"},
		},
	}, nil
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// traced sets the workload up once, runs its first tracedJobs jobs untraced
// and then again traced, and reports the per-layer metrics of the traced
// pass. The traced pass turns Observe on, so the checker's own counters fill
// the refine, tso, pmem, snapshot and por layers.
func traced(workload string, seed int64, spansPath string, cfg config) (*report, error) {
	tr := newTracer()
	e, err := setup(workload, seed, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer e.close() // on error paths; the success path checks the error
	var t tally
	var plain float64
	for i := range tracedJobs {
		j := e.jobs.at(i)
		t0 := time.Now()
		res, err := e.explore(j, j.opts)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.name, err)
		}
		plain += time.Since(t0).Seconds()
		t.note(j, res)
	}

	lay := make(map[string]float64)
	var bytes0 int64
	if e.fleet != nil {
		bytes0 = e.fleet.fab.TotalBytes()
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	tr.on.Store(true)
	var traced float64
	for i := range tracedJobs {
		j := e.jobs.at(i)
		opts := j.opts
		opts.Observe = true
		t0 := time.Now()
		res, hist, err := tracedExplore(e, tr, i, j, opts)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.name, err)
		}
		traced += time.Since(t0).Seconds()
		t.note(j, res)
		addCounters(lay, res, hist)
		if workload == "bug-hunt" && i == 0 && res.Buggy() {
			if err := forensics(tr, j, opts, res, lay); err != nil {
				t.failed++
				fmt.Fprintf(os.Stderr, "known-answer failure: job %s forensics: %v\n", j.name, err)
			}
		}
	}
	tr.on.Store(false)
	runtime.ReadMemStats(&gc1)
	if e.fleet != nil {
		lay["dist.wire_bytes"] = float64(e.fleet.fab.TotalBytes() - bytes0)
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	lay["gc.cycles"] = float64(gc1.NumGC - gc0.NumGC)
	lay["gc.pause_s"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e9
	lay["obs.trace_overhead"] = traced / plain

	x := tr.index()
	addSpans(lay, x)
	if err := x.write(spansPath); err != nil {
		return nil, err
	}
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = metric{lay[d.name], d.unit}
	}
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// tracedExplore runs one job of the traced pass inside a "job" span. In
// process, core.New and Checker.Run get spans of their own and the guest's
// callbacks nest under Run; the checker's timer histograms are returned
// beside the result.
func tracedExplore(e *env, tr *tracer, i int, j *job, opts core.Options) (*core.Result, obs.HistVec, error) {
	tr.job = i
	leave := tr.enter("job")
	defer leave()
	if e.fleet != nil {
		res, err := e.fleet.run(j.spec, opts)
		return res, obs.HistVec{}, err
	}
	leaveNew := tr.enter("core.new")
	c := core.New(tr.wrapGuest(j.prog), opts)
	leaveNew()
	leaveRun := tr.enter("core.run")
	res := c.Run()
	leaveRun()
	return res, c.Observability().Histograms(), nil
}

// forensics minimizes the first bug of a traced job and builds the
// witness of the minimized report. Both must reproduce the same bug.
func forensics(tr *tracer, j *job, opts core.Options, res *core.Result, lay map[string]float64) error {
	prog := tr.wrapGuest(j.prog)
	leave := tr.enter("forensics.minimize")
	nb, m := core.Minimize(prog, opts, res.Bugs[0])
	leave()
	leave = tr.enter("forensics.witness")
	w := core.BuildWitness(prog, opts, nb)
	leave()
	lay["forensics.minimize_trials"] += float64(m.Trials)
	if bugKey(nb) != bugKey(res.Bugs[0]) {
		return fmt.Errorf("minimized bug %v differs from %v", nb, res.Bugs[0])
	}
	if !w.Reproduced {
		return fmt.Errorf("witness of %v did not reproduce", nb)
	}
	return nil
}

// addCounters folds one traced result's counters into the per-layer sums.
func addCounters(lay map[string]float64, r *core.Result, h obs.HistVec) {
	lay["core.scenarios"] += float64(r.Scenarios)
	lay["core.executions"] += float64(r.Executions)
	lay["core.steps"] += float64(r.Steps)
	lay["refine.s"] += float64(h[obs.TimerRefinement].Sum) / 1e9
	lay["por.fingerprint_s"] += float64(h[obs.TimerFingerprint].Sum) / 1e9
	m := r.Metrics
	if m == nil {
		return
	}
	for name, v := range map[string]int64{
		"refine.load_refinements":     m.LoadRefinements,
		"refine.rf_candidates":        m.RFCandidates,
		"refine.skipped":              m.RefinementsSkipped,
		"tso.sb_evictions":            m.SBEvictions,
		"tso.fb_writebacks":           m.FBWritebacks,
		"tso.load_sb_hits":            m.LoadSBHits,
		"pmem.load_cache_hits":        m.LoadCacheHits,
		"snapshot.restores":           m.SnapshotRestores,
		"snapshot.choice_restores":    m.ChoiceRestores,
		"snapshot.replay_steps":       m.ReplaySteps,
		"snapshot.replay_steps_saved": m.ReplayStepsSaved,
		"por.fingerprint_hits":        m.FingerprintHits,
		"por.fingerprint_misses":      m.FingerprintMisses,
		"por.scenarios_pruned":        m.ScenariosPruned,
		"por.rf_elisions":             m.RFElisions,
	} {
		lay[name] += float64(v)
	}
	lay["snapshot.restore_s"] += float64(m.SnapshotRestoreNs+m.ChoiceRestoreNs) / 1e9
	lay["snapshot.replay_s"] += float64(m.ReplayNs) / 1e9
	lay["pmem.peak_snapshot_bytes"] = max(lay["pmem.peak_snapshot_bytes"], float64(m.MaxSnapshotBytes))
}

// addSpans derives the per-layer times and call counts from the spans.
func addSpans(lay map[string]float64, x *spanIndex) {
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	_, ns := x.sum("core.new", "")
	lay["core.new_s"] = secs(ns)
	_, ns = x.sum("core.run", "")
	lay["core.run_s"] = secs(ns)
	lay["core.engine_self_s"] = secs(x.self("core.run"))
	for _, phase := range []string{"pre_failure", "post_failure"} {
		n, ns := x.sum("context."+phase, "core.run")
		lay["context."+phase+"_s"] = secs(ns)
		lay["context."+phase+"_calls"] = float64(n)
		_, ns = x.sum("dist.worker_context."+phase, "")
		lay["dist.worker_context_s"] += secs(ns)
	}
	_, ns = x.sum("forensics.minimize", "")
	lay["forensics.minimize_s"] = secs(ns)
	_, ns = x.sum("forensics.witness", "")
	lay["forensics.witness_s"] = secs(ns)
	var rpcs int
	for _, r := range []string{"lease", "commit", "heartbeat", "jobs"} {
		n, ns := x.sum("dist.server."+r, "")
		lay["dist.server_s."+r] = secs(ns)
		rpcs += n
		n, ns = x.sum("dist.rpc."+r, "")
		lay["dist.rpcs."+r] = float64(n)
		lay["dist.rpc_s."+r] = secs(ns)
	}
	_, ns = x.sum("dist.worker_idle", "")
	lay["dist.worker_idle_s"] = secs(ns)
	if scen := lay["core.scenarios"]; rpcs > 0 && scen > 0 {
		lay["dist.rpcs_per_scenario"] = float64(rpcs) / scen
		lay["dist.wire_bytes_per_scenario"] = lay["dist.wire_bytes"] / scen
	}
}

// gateCounts runs the traced run of each in-process workload (or of the one
// named) twice, in child processes, and requires every deterministic count
// to repeat exactly. The dist-fleet counts are not gated: a worker's commit
// cadence adapts to the scenario rate it observes, so its RPC counts follow
// the machine's speed.
func gateCounts(workload string, seed int64) error {
	names := workloads[:3]
	if workload != "" {
		names = []string{workload}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, w := range names {
		var runs [2]map[string]metric
		for i := range runs {
			out, err := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed), "-trace", "1").Output()
			if err != nil {
				return fmt.Errorf("traced run of %s: %w", w, err)
			}
			var rep report
			if err := json.Unmarshal(lastLine(out), &rep); err != nil {
				return fmt.Errorf("traced run of %s: %w", w, err)
			}
			runs[i] = rep.Metrics
		}
		counts := make(map[string]float64)
		for _, d := range perLayer {
			if !d.gate {
				continue
			}
			a, b := runs[0][d.name].Value, runs[1][d.name].Value
			counts[d.name] = a
			if a != b {
				ok = false
				fmt.Printf("%s: %s differs: %v then %v\n", w, d.name, a, b)
			}
		}
		line, _ := json.Marshal(map[string]any{"workload": w, "seed": seed, "counts": counts})
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("deterministic counts did not repeat")
	}
	return nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}
