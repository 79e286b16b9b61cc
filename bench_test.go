package offchip_test

// One benchmark per table and figure of the paper's evaluation (Section 6).
// Each iteration regenerates the experiment with full traces on the Table 1
// platform and reports the figure's headline number as a benchmark metric,
// so `go test -bench=. -benchmem` reproduces the whole evaluation:
//
//	BenchmarkFig16_LineInterleaving    avg_exec_improvement_pct=...
//
// The printed tables themselves come from `go run ./cmd/benchtab -exp all`;
// EXPERIMENTS.md records paper-vs-measured for every experiment.

import (
	"fmt"
	"testing"

	"offchip/internal/core"
	"offchip/internal/experiments"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

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

func full() experiments.Config { return experiments.Config{} }

// benchFig runs a FigResult experiment and reports selected columns of its
// average row as benchmark metrics.
func benchFig(b *testing.B, run func(experiments.Config) (*experiments.FigResult, error), metrics map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run(full())
		if err != nil {
			b.Fatal(err)
		}
		for metric, column := range metrics {
			for c, name := range r.Columns {
				if name == column {
					b.ReportMetric(r.Average[c], metric)
				}
			}
		}
	}
}

// BenchmarkFig03_OffChipShare regenerates Figure 3: the off-chip share of
// data accesses (paper: 22.4% of dynamic accesses on average).
func BenchmarkFig03_OffChipShare(b *testing.B) {
	benchFig(b, experiments.Fig3, map[string]string{
		"avg_offchip_share_pct":   "offchip/total%",
		"avg_offchip_l2level_pct": "offchip/L2level%",
	})
}

// BenchmarkFig04_OptimalScheme regenerates Figure 4: the optimal scheme's
// savings (paper: 20.8% / 68.2% / 45.6% network+memory, 19.5% execution).
func BenchmarkFig04_OptimalScheme(b *testing.B) {
	benchFig(b, experiments.Fig4, map[string]string{
		"avg_exec_improvement_pct":        "exec%",
		"avg_offchip_net_improvement_pct": "offchip-net%",
	})
}

// BenchmarkTable02_CompilerStats regenerates Table 2: arrays optimized and
// references satisfied per application.
func BenchmarkTable02_CompilerStats(b *testing.B) {
	benchFig(b, experiments.Table2, map[string]string{
		"avg_arrays_optimized_pct": "arrays%",
		"avg_refs_satisfied_pct":   "refs%",
	})
}

// BenchmarkFig13_AccessMaps regenerates Figure 13: the per-node
// distribution of apsi's off-chip accesses to MC0 before/after.
func BenchmarkFig13_AccessMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(full())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.QuadrantShareOriginal, "orig_quadrant_share_pct")
		b.ReportMetric(100*r.QuadrantShareOptimized, "opt_quadrant_share_pct")
	}
}

// BenchmarkFig14_PageInterleaving regenerates Figure 14 (paper averages:
// 12.1% / 62.8% / 41.9% / 17.1%).
func BenchmarkFig14_PageInterleaving(b *testing.B) {
	benchFig(b, experiments.Fig14, map[string]string{
		"avg_exec_improvement_pct":        "exec%",
		"avg_onchip_net_improvement_pct":  "onchip-net%",
		"avg_offchip_net_improvement_pct": "offchip-net%",
		"avg_mem_improvement_pct":         "mem%",
	})
}

// BenchmarkFig15_HopCDF regenerates Figure 15: the CDF of links traversed
// (paper: requests using <=4 links go from 22% to 31% off-chip).
func BenchmarkFig15_HopCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(full())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.AtOrBelow(r.OffChipBase, 4), "offchip_orig_le4links_pct")
		b.ReportMetric(100*r.AtOrBelow(r.OffChipOpt, 4), "offchip_opt_le4links_pct")
	}
}

// BenchmarkFig16_LineInterleaving regenerates Figure 16, the headline
// result (paper averages: 13.6% / 66.4% / 45.8% / 20.5%).
func BenchmarkFig16_LineInterleaving(b *testing.B) {
	benchFig(b, experiments.Fig16, map[string]string{
		"avg_exec_improvement_pct":        "exec%",
		"avg_onchip_net_improvement_pct":  "onchip-net%",
		"avg_offchip_net_improvement_pct": "offchip-net%",
		"avg_mem_improvement_pct":         "mem%",
	})
}

// BenchmarkFig17_MappingM1vsM2 regenerates Figure 17 (paper: M1 wins except
// for fma3d and minighost).
func BenchmarkFig17_MappingM1vsM2(b *testing.B) {
	benchFig(b, experiments.Fig17, map[string]string{
		"avg_m1_exec_pct": "M1 exec%",
		"avg_m2_exec_pct": "M2 exec%",
	})
}

// BenchmarkFig18_BankQueues regenerates Figure 18: per-application bank
// queue occupancy under M1 (paper: fma3d and minighost highest).
func BenchmarkFig18_BankQueues(b *testing.B) {
	benchFig(b, experiments.Fig18, map[string]string{
		"avg_queue_occupancy": "queue-occupancy",
	})
}

// BenchmarkFig19_MCPlacements regenerates Figure 19 (paper: P2 best at
// ~20.7% average).
func BenchmarkFig19_MCPlacements(b *testing.B) {
	benchFig(b, experiments.Fig19, map[string]string{
		"avg_p1_exec_pct": "P1-corners exec%",
		"avg_p2_exec_pct": "P2-diamond exec%",
		"avg_p3_exec_pct": "P3-topbottom exec%",
	})
}

// BenchmarkFig20_MCCounts regenerates Figure 20 (paper: more controllers,
// larger savings).
func BenchmarkFig20_MCCounts(b *testing.B) {
	benchFig(b, experiments.Fig20, map[string]string{
		"avg_4mc_exec_pct":  "4MC exec%",
		"avg_8mc_exec_pct":  "8MC exec%",
		"avg_16mc_exec_pct": "16MC exec%",
	})
}

// BenchmarkFig21_CoreCounts regenerates Figure 21 (paper: 14% on 4x4, 18%
// on 4x8, 20.5% on 8x8).
func BenchmarkFig21_CoreCounts(b *testing.B) {
	benchFig(b, experiments.Fig21, map[string]string{
		"avg_4x4_exec_pct": "4x4 exec%",
		"avg_8x4_exec_pct": "8x4 exec%",
		"avg_8x8_exec_pct": "8x8 exec%",
	})
}

// BenchmarkFig22_SharedL2 regenerates Figure 22 (paper: 24.3% average with
// the shared SNUCA L2).
func BenchmarkFig22_SharedL2(b *testing.B) {
	benchFig(b, experiments.Fig22, map[string]string{
		"avg_exec_improvement_pct":        "exec%",
		"avg_offchip_net_improvement_pct": "offchip-net%",
	})
}

// BenchmarkFig23_FirstTouch regenerates Figure 23 (paper: 12.3% average
// over the first-touch policy).
func BenchmarkFig23_FirstTouch(b *testing.B) {
	benchFig(b, experiments.Fig23, map[string]string{
		"avg_exec_improvement_pct": "exec%",
	})
}

// BenchmarkFig24_ThreadsPerCore regenerates Figure 24 (paper: improvements
// grow with thread count).
func BenchmarkFig24_ThreadsPerCore(b *testing.B) {
	benchFig(b, experiments.Fig24, map[string]string{
		"avg_1tpc_exec_pct": "1tpc exec%",
		"avg_2tpc_exec_pct": "2tpc exec%",
	})
}

// BenchmarkFig25_Multiprogrammed regenerates Figure 25 (paper: weighted
// speedup improvements of 5.4%..13.1%).
func BenchmarkFig25_Multiprogrammed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig25(full())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range r.Rows {
			sum += row.ImprovementP
		}
		b.ReportMetric(sum/float64(len(r.Rows)), "avg_ws_improvement_pct")
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
