// Multiprog: co-run two multithreaded applications on one manycore
// (Section 6.4). Each core time-shares one thread of each application; the
// layout transformation is per-application and oblivious to co-scheduling,
// yet the mix's weighted speedup improves because both applications' off-
// chip traffic stops criss-crossing the mesh.
//
// The mix is a co-run job (mix=co2(swim+apsi)) like any other runner job,
// so this is Figure 25's first row: each application alone, then the mix
// with original and with optimized layouts.
//
//	go run ./examples/multiprog
package main

import (
	"fmt"
	"log"

	"offchip/internal/runner"
	"offchip/internal/stats"
)

func main() {
	apps := []string{"swim", "apsi"}
	const mix = "co2(swim+apsi)"
	specs := []runner.JobSpec{
		{Mode: runner.ModeBaseline, App: apps[0]},
		{Mode: runner.ModeBaseline, App: apps[1]},
		{Mode: runner.ModeBaseline, Mix: mix},
		{Mode: runner.ModeOptimized, Mix: mix},
	}
	res, err := runner.Run(specs, runner.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		log.Fatal(err)
	}

	var alone []int64
	for i, name := range apps {
		t := res.Outcomes[i].Run.ExecTime
		fmt.Printf("%-6s alone: %d cycles\n", name, t)
		alone = append(alone, t)
	}
	ws := func(label string, o *runner.JobOutcome) float64 {
		var shared []int64
		for appID, name := range apps {
			t := o.Run.AppExecTime[appID]
			fmt.Printf("%-6s shared (%s): %d cycles\n", name, label, t)
			shared = append(shared, t)
		}
		return stats.WeightedSpeedup(alone, shared)
	}
	wsBase := ws("original", res.Outcomes[2])
	wsOpt := ws("optimized", res.Outcomes[3])
	fmt.Printf("\nweighted speedup: original %.2f, optimized %.2f (%.1f%% better)\n",
		wsBase, wsOpt, 100*(wsOpt-wsBase)/wsBase)
}
