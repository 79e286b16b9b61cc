package offchip_test

// BenchmarkExperiment regenerates every table and figure of the paper's
// evaluation (Section 6), one sub-benchmark per experiment ID, with full
// traces on the Table 1 platform:
//
//	go test -bench 'Experiment/fig16$' -benchtime 1x
//
// The printed tables themselves, with their AVERAGE rows, come from
// `go run ./cmd/benchtab -exp <id>`; EXPERIMENTS.md records
// paper-vs-measured for every experiment.

import (
	"fmt"
	"testing"

	"offchip/internal/core"
	"offchip/internal/experiments"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

// BenchmarkExperiment runs each experiment of experiments.AllIDs per
// iteration, exactly as `benchtab -exp <id>` does.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.AllIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(id, experiments.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullSweep is the end-to-end engine regression benchmark: one full
// (untruncated) application simulation per iteration, reporting wall-clock
// ns per simulated event and allocations. The micro-benchmarks in
// internal/engine isolate the queue; this one includes the caches, NoC, and
// DRAM model the events drive. The repo's recorded end-to-end benchmark is
// `bash bench/run.sh` (declared in BENCHMARK.json), whose traced pass
// reports the same ns-per-event figure per layer.
func BenchmarkFullSweep(b *testing.B) {
	app, ok := workloads.ByName("apsi")
	if !ok {
		b.Fatal("apsi workload missing")
	}
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	base, _, _, err := core.Workloads(app, m, cm, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.SimConfig(m, cm, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(cfg, base)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/simevent")
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out. These are not
// paper figures; they quantify how much each modeling decision matters.

// BenchmarkAblationContention compares the optimization's benefit with and
// without NoC link contention: with an ideal (contention-free) network the
// benefit shrinks to the pure-distance component.
func BenchmarkAblationContention(b *testing.B) {
	app, _ := workloads.ByName("apsi")
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		withC, err := core.Compare(app, m, cm, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		noC, err := core.Compare(app, m, cm, core.Options{NoContention: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*withC.ExecImprovement(), "exec_improvement_contended_pct")
		b.ReportMetric(100*noC.ExecImprovement(), "exec_improvement_ideal_net_pct")
	}
}

// BenchmarkAblationMLP compares the benefit under different per-core
// outstanding-miss windows: wider windows hide more of the latency the
// optimization removes.
func BenchmarkAblationMLP(b *testing.B) {
	app, _ := workloads.ByName("apsi")
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, w := range []int{1, 2, 8} {
			c, err := core.Compare(app, m, cm, core.Options{MLPWindow: w})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*c.ExecImprovement(), fmt.Sprintf("exec_improvement_mlp%d_pct", w))
		}
	}
}

// BenchmarkAblationBanks compares the benefit under bank-scarce (4) and
// bank-rich (16) controllers: scarcity shifts the bottleneck from the
// network to the queues and shrinks the locality benefit.
func BenchmarkAblationBanks(b *testing.B) {
	app, _ := workloads.ByName("minighost")
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, banks := range []int{4, 16} {
			c, err := core.Compare(app, m, cm, core.Options{BanksPerMC: banks})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*c.ExecImprovement(), fmt.Sprintf("exec_improvement_%dbanks_pct", banks))
		}
	}
}
