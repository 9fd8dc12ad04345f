// Command jaaru-perf regenerates the paper's Figure 14: for each fixed
// RECIPE benchmark, the number of executions Jaaru explores (JExec.), the
// wall-clock exploration time (JTime), the number of failure injection
// points (FPoints), and the number of post-failure states an eager model
// checker such as Yat would have to explore — computed analytically with
// big-integer arithmetic, exactly as the paper did (Yat is not publicly
// available).
//
// The end-to-end benchmark of the checker (engine settings, per-layer time,
// known-answer checks) is jaarubench: `bash jaarubench/run.sh`.
//
// -cpuprofile and -memprofile write pprof profiles of the run.
//
// Usage:
//
//	jaaru-perf [-scale N] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"jaaru/internal/core"
	"jaaru/internal/profiling"
	"jaaru/internal/recipe"
	"jaaru/internal/yat"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale factor (1 = default table)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProfiles := profiling.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	fmt.Println("Figure 14 — Jaaru's state space reduction (fixed RECIPE variants)")
	fmt.Printf("%-12s  %7s  %10s  %8s  %8s  %14s\n",
		"Benchmark", "#JExec.", "JTime", "#FPoints", "Ex/FP", "#Yat Execs.")
	fmt.Println("------------------------------------------------------------------")

	for _, prog := range recipe.PerfWorkloads(*scale) {
		res := core.New(prog, core.Options{}).Run()
		if res.Buggy() {
			fmt.Fprintf(os.Stderr, "%s: unexpected bug: %v\n", prog.Name, res.Bugs[0])
			os.Exit(1)
		}
		count := yat.CountStates(prog, core.Options{})
		perFP := float64(res.Executions-1) / float64(max(res.FailurePoints, 1))
		fmt.Printf("%-12s  %7d  %10s  %8d  %8.2f  %14s\n",
			strings.TrimPrefix(prog.Name, "recipe/"), res.Executions, res.Duration.Round(1e6),
			res.FailurePoints, perFP, count.Sci())
	}
	fmt.Println()
	fmt.Println("Paper (for shape comparison): CCEH 891/14.51s/528/2.17e182,")
	fmt.Println("FAST_FAIR 170/1.48s/41/5.43e15, P-ART 174/1.86s/22/1.21e34,")
	fmt.Println("P-BwTree 71/0.79s/36/1.50e16, P-CLHT 25/1.59s/12/1.93e605,")
	fmt.Println("P-Masstree 24/0.17s/16/1.67e15.")
	fmt.Println("The paper's Ex/FP range is ~1.5 to ~8; this run's smaller workloads")
	fmt.Println("may fall below it. The eager column should exceed Jaaru's by many")
	fmt.Println("orders of magnitude.")
}
