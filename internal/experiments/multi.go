package experiments

import (
	"fmt"

	"offchip/internal/layout"
	"offchip/internal/runner"
	"offchip/internal/stats"
	"offchip/internal/workloads"
)

// Fig24 reproduces Figure 24 (Section 6.4): execution time improvement
// with 1 and 2 threads per core — the gains grow with thread count because
// the unoptimized runs suffer disproportionate contention. (The paper
// highlights the two-threads-per-core point, e.g. minighost ≈20%.)
func Fig24(cfg Config) (*FigResult, error) {
	cores := layout.Default8x8().Cores()
	var variants []variant
	for _, tpc := range []int{1, 2} {
		variants = append(variants, variant{
			fmt.Sprintf("%dtpc", tpc),
			runner.JobSpec{Threads: cores * tpc},
		})
	}
	f, err := execSuite(cfg, "Fig24", "threads per core", variants)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// coRunMixes are the co-scheduled pairs Figure 25 evaluates, W1–W4 in
// order: each application runs one thread on every core, so each core
// time-shares one thread of each application in the mix.
func coRunMixes() []workloads.MixSpec {
	pair := func(a, b string) workloads.MixSpec {
		return workloads.MixSpec{CoRun: true, Entries: []workloads.MixEntry{{App: a}, {App: b}}}
	}
	return []workloads.MixSpec{
		pair("swim", "apsi"),
		pair("mgrid", "minighost"),
		pair("fma3d", "apsi"),
		pair("gafort", "art"),
	}
}

// MixResult is the Figure 25 outcome: weighted speedups of baseline and
// optimized multiprogrammed runs.
type MixResult struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Rows  []MixRow `json:"rows"`
}

// MixRow is one workload mix's result.
type MixRow struct {
	Mix          string  `json:"mix"`
	WSBaseline   float64 `json:"wsBaseline"`
	WSOptimized  float64 `json:"wsOptimized"`
	ImprovementP float64 `json:"improvementPct"`
}

// Table renders the result.
func (r *MixResult) Table() string {
	t := &stats.Table{
		Title:   fmt.Sprintf("%s: %s", r.ID, r.Title),
		Headers: []string{"mix", "ws-baseline", "ws-optimized", "improvement%"},
	}
	for _, row := range r.Rows {
		t.AddF(row.Mix, row.WSBaseline, row.WSOptimized, row.ImprovementP)
	}
	return t.String()
}

// Fig25 reproduces Figure 25 (Section 6.4): multiprogrammed workloads,
// evaluated with the weighted speedup metric [21]: Σᵢ Tᵢ(alone)/Tᵢ(shared).
// Its jobs are one baseline run on the default machine per distinct
// application, the common alone-time reference (weighted speedup compares
// shared throughput against one fixed baseline), then a baseline and an
// optimized co-run of every mix, whose per-application completion times
// are the shared times. Sampling refuses a co-run (see sim.RunSampled), so
// under Config.Sample the figure fails unless the spec covers every stream.
func Fig25(cfg Config) (*MixResult, error) {
	mixes := coRunMixes()
	var specs []runner.JobSpec
	alone := map[string]int{} // app → index of its alone job
	for _, mx := range mixes {
		for _, e := range mx.Entries {
			if _, ok := alone[e.App]; !ok {
				alone[e.App] = len(specs)
				specs = append(specs, cfg.job(runner.JobSpec{}, runner.ModeBaseline, e.App))
			}
		}
	}
	first := len(specs)
	for _, mx := range mixes {
		for _, mode := range []runner.Mode{runner.ModeBaseline, runner.ModeOptimized} {
			s := cfg.job(runner.JobSpec{}, mode, "")
			s.Mix = mx.String()
			specs = append(specs, s)
		}
	}
	res, err := cfg.runJobs(specs)
	if err != nil {
		return nil, err
	}
	out := &MixResult{ID: "Fig25", Title: "multiprogrammed mixes, weighted speedup"}
	for i, mx := range mixes {
		var aloneT []int64
		for _, e := range mx.Entries {
			aloneT = append(aloneT, res.Outcomes[alone[e.App]].ExecTimes["baseline"])
		}
		ws := func(o *runner.JobOutcome) float64 {
			sharedT := make([]int64, len(mx.Entries))
			for app := range sharedT {
				sharedT[app] = o.Run.AppExecTime[app]
			}
			return stats.WeightedSpeedup(aloneT, sharedT)
		}
		wsBase := ws(res.Outcomes[first+2*i])
		wsOpt := ws(res.Outcomes[first+2*i+1])
		out.Rows = append(out.Rows, MixRow{
			Mix:          fmt.Sprintf("W%d", i+1),
			WSBaseline:   wsBase,
			WSOptimized:  wsOpt,
			ImprovementP: 100 * (wsOpt - wsBase) / wsBase,
		})
	}
	return out, nil
}
