package experiments

import (
	"fmt"

	"offchip/internal/core"
	"offchip/internal/layout"
	"offchip/internal/runner"
	"offchip/internal/sim"
	"offchip/internal/stats"
	"offchip/internal/trace"
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

// Mix is one multiprogrammed workload of Figure 25.
type Mix struct {
	Name string
	Apps []string
}

// DefaultMixes are the co-scheduled pairs Figure 25 evaluates: each
// application runs one thread on every core, so each core time-shares one
// thread of each application in the mix.
func DefaultMixes() []Mix {
	return []Mix{
		{"W1", []string{"swim", "apsi"}},
		{"W2", []string{"mgrid", "minighost"}},
		{"W3", []string{"fma3d", "apsi"}},
		{"W4", []string{"gafort", "art"}},
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
// It stays sequential by design: the applications of a mix time-share one
// simulated machine, so a mix is a single simulation, not a shardable set
// of independent jobs.
func Fig25(cfg Config) (*MixResult, error) {
	m, cm, _, err := runner.JobSpec{}.Build()
	if err != nil {
		return nil, err
	}
	res := &MixResult{ID: "Fig25", Title: "multiprogrammed mixes, weighted speedup"}
	// A mix is no job, so its seed is the config's as given, not derived
	// from a job ID.
	opts := core.Options{MaxAccessesPerThread: cfg.MaxAccessesPerThread, Seed: cfg.Seed, TraceCache: cfg.TraceCache}
	simCfg := core.SimConfig(m, cm, opts)
	for _, mix := range DefaultMixes() {
		// Build both flavors of every application in the mix, and measure
		// the common alone-time reference on the unoptimized runs (weighted
		// speedup compares shared throughput against one fixed baseline).
		var baseShared, optShared []*sim.Workload
		var alone []int64
		for appID, name := range mix.Apps {
			app, ok := workloads.ByName(name)
			if !ok {
				return nil, fmt.Errorf("fig25: unknown app %q", name)
			}
			baseW, optW, _, err := core.Workloads(app, m, cm, opts)
			if err != nil {
				return nil, fmt.Errorf("fig25/%s: %w", mix.Name, err)
			}
			for i := range baseW.Streams {
				baseW.Streams[i].AppID = appID
			}
			for i := range optW.Streams {
				optW.Streams[i].AppID = appID
			}
			r, err := sim.Run(simCfg, baseW)
			if err != nil {
				return nil, err
			}
			alone = append(alone, r.ExecTime)
			baseShared = append(baseShared, baseW)
			optShared = append(optShared, optW)
		}
		wsBase, err := mixWS(mix, simCfg, alone, baseShared)
		if err != nil {
			return nil, fmt.Errorf("fig25/%s: %w", mix.Name, err)
		}
		wsOpt, err := mixWS(mix, simCfg, alone, optShared)
		if err != nil {
			return nil, fmt.Errorf("fig25/%s: %w", mix.Name, err)
		}
		res.Rows = append(res.Rows, MixRow{
			Mix:          mix.Name,
			WSBaseline:   wsBase,
			WSOptimized:  wsOpt,
			ImprovementP: 100 * (wsOpt - wsBase) / wsBase,
		})
	}
	return res, nil
}

// mixWS runs the merged mix and returns Σᵢ Tᵢ(alone)/Tᵢ(shared).
func mixWS(mix Mix, simCfg sim.Config, alone []int64, ws []*sim.Workload) (float64, error) {
	merged := trace.Merge(mix.Name, ws...)
	r, err := sim.Run(simCfg, merged)
	if err != nil {
		return 0, err
	}
	var sharedTimes []int64
	for appID := range mix.Apps {
		sharedTimes = append(sharedTimes, r.AppExecTime[appID])
	}
	return stats.WeightedSpeedup(alone, sharedTimes), nil
}
