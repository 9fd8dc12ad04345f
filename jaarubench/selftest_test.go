package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload end to end at a tiny size, timed and
// traced, and requires every known answer to hold and every metric to be
// reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep, err := timed(w, 1, 0, config{tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted < minJobs {
				t.Errorf("timed run: correct %v, %d of %d jobs failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("timed run: metric %s = %+v", d.name, m)
				}
			}

			rep, err = traced(w, 1, filepath.Join(t.TempDir(), "spans.jsonl"), config{tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted != 2*tracedJobs {
				t.Errorf("traced run: correct %v, %d of %d jobs failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			for _, d := range perLayer {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("traced run: metric %s = %+v", d.name, m)
				}
			}
			v := func(name string) float64 { return rep.Metrics[name].Value }
			if w != "dist-fleet" {
				parts := v("core.engine_self_s") + v("context.pre_failure_s") + v("context.post_failure_s")
				if math.Abs(parts-v("core.run_s")) > 1e-9 || v("core.run_s") <= 0 {
					t.Errorf("engine self %v + context %v + %v != run %v",
						v("core.engine_self_s"), v("context.pre_failure_s"), v("context.post_failure_s"), v("core.run_s"))
				}
			} else if v("dist.rpcs.lease") == 0 || v("dist.worker_context_s") == 0 {
				t.Errorf("traced fleet recorded no leases or guest time: %+v", rep.Metrics)
			}
		})
	}
}

// TestPlantedWrongAnswer plants a wrong known answer in every workload; the
// timed run must report it as failed.
func TestPlantedWrongAnswer(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep, err := timed(w, 1, 0, config{tiny: true, plant: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed == 0 || rep.Metrics["pass_ratio"].Value >= 1 {
				t.Errorf("planted wrong answer not caught: correct %v, %d of %d failed",
					rep.Correct, rep.Failed, rep.Attempted)
			}
		})
	}
}

// TestSeedMakesJobList checks that a seed fixes the job list and that
// another seed orders it differently.
func TestSeedMakesJobList(t *testing.T) {
	names := func(seed int64) []string {
		e, err := setup("insert-sweep", seed, config{tiny: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := range 3 * len(insertSweep) {
			out = append(out, e.jobs.at(i).name)
		}
		return out
	}
	a, b, c := names(1), names(1), names(2)
	if !slices.Equal(a, b) {
		t.Errorf("seed 1 gave two job lists:\n%v\n%v", a, b)
	}
	if slices.Equal(a, c) {
		t.Errorf("seeds 1 and 2 gave the same job list %v", a)
	}
}

// TestSelfTime checks the self-time arithmetic on overlapping child spans.
func TestSelfTime(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.spans = []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "run", Start: 200, End: 210, Parent: -1},
	}
	x := tr.index()
	// Children cover 10-40 and 90-100 of the first span: 40 ns.
	if got := x.self("run"); got != 60+10 {
		t.Errorf("self(run) = %d, want 70", got)
	}
	if n, ns := x.sum("a", "run"); n != 1 || ns != 20 {
		t.Errorf("sum(a, run) = %d, %d", n, ns)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics the
// benchmark reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range b.Workloads {
		if i >= len(workloads) || w.Name != workloads[i] {
			t.Errorf("workload %d is %q, the benchmark has %v", i, w.Name, workloads)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
