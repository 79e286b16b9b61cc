package experiments

import (
	"offchip/internal/runner"
	"offchip/internal/stats"
)

// sweepSchemes are the layout schemes the example sweep crosses with the
// application suite. A fixed slice — never a map — so the enumerated job
// list (and every job ID) is identical on every run.
var sweepSchemes = []variant{
	{"line/private", runner.JobSpec{}},
	{"page/private", runner.JobSpec{Interleave: "page"}},
	{"line/shared", runner.JobSpec{L2: "shared"}},
}

// ExampleSweep enumerates the demonstration sweep: every configured
// application × the three layout schemes, one three-way comparison job
// each, in app-major order (apps in the paper's listing order).
func (c Config) ExampleSweep() ([]runner.JobSpec, error) {
	_, specs, err := c.suiteJobs(runner.ModeCompare, sweepSchemes...)
	return specs, err
}

// SweepResult is the outcome of RunSweep: the job list and the raw runner
// result.
type SweepResult struct {
	Specs  []runner.JobSpec
	Result *runner.Result
}

// RunSweep runs the example sweep across cfg.Parallel workers.
func RunSweep(cfg Config) (*SweepResult, error) {
	specs, err := cfg.ExampleSweep()
	if err != nil {
		return nil, err
	}
	res, err := cfg.runJobs(specs)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Specs: specs, Result: res}, nil
}

// Table renders one row per job: the scheme, the job's short ID (the
// replay handle is the full ID, printed by cmd/benchtab -jobs), and the
// headline improvements.
func (r *SweepResult) Table() string {
	t := &stats.Table{
		Title:   "example sweep: app × layout scheme",
		Headers: []string{"app", "scheme", "job", "exec%", "mem%", "offchip-net%"},
	}
	for i, o := range r.Result.Outcomes {
		c := o.Comparison
		t.AddF(o.Spec.App, sweepSchemes[i%len(sweepSchemes)].name, o.ShortID,
			100*c.ExecImprovement(), 100*c.MemImprovement(), 100*c.OffChipNetImprovement())
	}
	return t.String()
}
