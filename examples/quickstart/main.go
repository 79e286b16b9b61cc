// Quickstart: write a parallel stencil in the affine-loop language, run the
// off-chip access localization pass on the paper's 8×8/4-MC platform, and
// measure what it buys on the simulated manycore.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"offchip/internal/core"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/trace"
)

// A column-order stencil (the paper's Figure 9(a) shape): the parallel loop
// indexes the fastest-varying dimension, so under the original layout each
// thread's off-chip misses spray across all four memory controllers.
const kernel = `
program quickstart
param NCOL = 2048
param NROW = 24
array Z[24][2048]

parfor i = 1 .. NCOL-1 {
  for j = 1 .. NROW-1 {
    Z[j][i] = Z[j-1][i] + Z[j][i] + Z[j+1][i]
  }
}
`

func main() {
	prog, err := ir.Parse(kernel)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Table 1 platform: 8×8 mesh, four corner controllers,
	// private L2s, cache-line interleaving, and the default L2-to-MC
	// mapping M1 (Figure 8a: one controller per quadrant).
	machine := layout.Default8x8()
	mapping, err := layout.MappingM1(machine, layout.PlacementCorners(machine.MeshX, machine.MeshY))
	if err != nil {
		log.Fatal(err)
	}

	// Step 1+2 of the paper: Data-to-Core mapping, then layout
	// customization (Algorithm 1).
	res, err := layout.Optimize(prog, machine, mapping, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report())
	w := prog.Nests[0].Body[0].Write
	cr, err := res.Layout(w.Array).RewriteRef(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformed reference: %s -> %s\n\n", w, cr)

	// Generate per-core traces for the original and transformed layouts
	// and replay them on the simulator.
	identity := &layout.Result{Program: prog, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	baseW, err := trace.Generate(prog, identity, machine, nil, trace.Options{MaxAccessesPerThread: trace.Unlimited})
	if err != nil {
		log.Fatal(err)
	}
	optW, err := trace.Generate(prog, res, machine, nil, trace.Options{MaxAccessesPerThread: trace.Unlimited})
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.SimConfig(machine, mapping, core.Options{})
	baseR, err := sim.Run(cfg, baseW)
	if err != nil {
		log.Fatal(err)
	}
	optR, err := sim.Run(cfg, optW)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("baseline : %8d cycles (off-chip share %.1f%%)\n", baseR.ExecTime, 100*baseR.OffChipShare())
	fmt.Printf("optimized: %8d cycles (off-chip share %.1f%%)\n", optR.ExecTime, 100*optR.OffChipShare())
	fmt.Printf("execution time saving: %.1f%%\n",
		100*float64(baseR.ExecTime-optR.ExecTime)/float64(baseR.ExecTime))
}
