// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each Fig/Table function runs the required
// compile-simulate comparisons and returns a typed result that renders as a
// fixed-width table; cmd/benchtab and the bench_test.go benchmarks are thin
// wrappers around this package. The per-experiment index in DESIGN.md maps
// each function to the paper's figure.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"offchip/internal/runner"
	"offchip/internal/stats"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// Config selects what to run and how long the traces are.
type Config struct {
	// Apps restricts the suite (nil: all 13).
	Apps []string
	// MaxAccessesPerThread shortens traces for smoke tests (0: full traces,
	// the setting every reported number uses).
	MaxAccessesPerThread int
	// Parallel is the worker count for the job-sharded experiments (0 or
	// 1: sequential). Results are bit-identical at any worker count.
	Parallel int
	// Seed decorrelates the simulator's jitter stream per job (0: the
	// historical stream every recorded figure uses).
	Seed uint64
	// OnJob, when set, receives live per-job completion events.
	OnJob func(runner.JobEvent)
	// Prof attaches the latency-attribution profiler to every job
	// (observation only — job IDs and results are unchanged); per-run
	// profiles land on each JobOutcome.Profiles.
	Prof bool
	// TraceCache memoizes trace generation across every job and experiment
	// sharing this config (see internal/tracecache). Wall-clock only: cached
	// streams are byte-identical to freshly generated ones, and job IDs are
	// unchanged.
	TraceCache *tracecache.Cache
	// Migrate selects the hot-page migration spec FigMig's dynamic and
	// hybrid runs use: "" means the default mem.MigrationSpec ("on"), or a
	// compact spec like "h16w1024c2f0t64". Other experiments ignore it.
	Migrate string
}

func (c Config) apps() ([]*workloads.App, error) {
	if len(c.Apps) == 0 {
		return workloads.All(), nil
	}
	var out []*workloads.App
	for _, name := range c.Apps {
		a, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown application %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// job completes s, a partial spec that carries only machine knobs, into
// one job of the given mode on app, with the config-wide knobs.
func (c Config) job(s runner.JobSpec, mode runner.Mode, app string) runner.JobSpec {
	s.Mode, s.App = mode, app
	s.Cap, s.Seed, s.Prof, s.Cache = c.MaxAccessesPerThread, c.Seed, c.Prof, c.TraceCache
	return s
}

// variant is one machine configuration a suite runs every application on:
// its name heads the variant's column, and spec carries its machine knobs.
type variant struct {
	name string
	spec runner.JobSpec
}

// suiteJobs enumerates one job of the given mode for every configured
// application × variant, app-major: apps[i] × variants[j] is job
// i·len(variants)+j. Enumeration walks slices in fixed order (never maps),
// so a suite's job list — and therefore its job IDs — is stable across
// runs.
func (c Config) suiteJobs(mode runner.Mode, variants ...variant) ([]*workloads.App, []runner.JobSpec, error) {
	apps, err := c.apps()
	if err != nil {
		return nil, nil, err
	}
	specs := make([]runner.JobSpec, 0, len(apps)*len(variants))
	for _, app := range apps {
		for _, v := range variants {
			specs = append(specs, c.job(v.spec, mode, app.Name))
		}
	}
	return apps, specs, nil
}

// runSuite runs suiteJobs' jobs and returns their outcomes in the same
// order.
func (c Config) runSuite(mode runner.Mode, variants ...variant) ([]*workloads.App, []*runner.JobOutcome, error) {
	apps, specs, err := c.suiteJobs(mode, variants...)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.runJobs(specs)
	if err != nil {
		return nil, nil, err
	}
	return apps, res.Outcomes, nil
}

// runJobs shards the specs across c.Parallel workers and fails on the
// first job error (in input order).
func (c Config) runJobs(specs []runner.JobSpec) (*runner.Result, error) {
	workers := c.Parallel
	if workers <= 0 {
		workers = 1
	}
	res, err := runner.Run(specs, runner.Options{Workers: workers, OnJob: c.OnJob})
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	return res, nil
}

// FigResult is a uniform per-application result matrix with a trailing
// average row, rendering as the bar groups of the paper's figures.
type FigResult struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Columns []string  `json:"columns"` // value column names (after the App column)
	Rows    []AppRow  `json:"rows"`
	Average []float64 `json:"average,omitempty"`
}

// AppRow is one application's values.
type AppRow struct {
	App    string    `json:"app"`
	Values []float64 `json:"values"`
}

// finish computes the average row.
func (f *FigResult) finish() {
	if len(f.Rows) == 0 {
		return
	}
	f.Average = make([]float64, len(f.Columns))
	for _, r := range f.Rows {
		for i, v := range r.Values {
			f.Average[i] += v
		}
	}
	for i := range f.Average {
		f.Average[i] /= float64(len(f.Rows))
	}
}

// Value returns the named column for the named application row.
func (f *FigResult) Value(app, column string) (float64, bool) {
	col := -1
	for i, c := range f.Columns {
		if c == column {
			col = i
		}
	}
	if col == -1 {
		return 0, false
	}
	for _, r := range f.Rows {
		if r.App == app {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Table renders the result.
func (f *FigResult) Table() string {
	t := &stats.Table{
		Title:   fmt.Sprintf("%s: %s", f.ID, f.Title),
		Headers: append([]string{"app"}, f.Columns...),
	}
	for _, r := range f.Rows {
		cells := []any{r.App}
		for _, v := range r.Values {
			cells = append(cells, v)
		}
		t.AddF(cells...)
	}
	if f.Average != nil {
		cells := []any{"AVERAGE"}
		for _, v := range f.Average {
			cells = append(cells, v)
		}
		t.AddF(cells...)
	}
	return t.String()
}

func (f *FigResult) String() string { return f.Table() }

// improvementSuite runs the three-way comparison of every app on one
// machine and returns the four Figure 14/16 metrics (percent improvements).
func improvementSuite(cfg Config, id, title string, machine runner.JobSpec) (*FigResult, error) {
	apps, outs, err := cfg.runSuite(runner.ModeCompare, variant{spec: machine})
	if err != nil {
		return nil, err
	}
	f := &FigResult{
		ID:      id,
		Title:   title,
		Columns: []string{"onchip-net%", "offchip-net%", "mem%", "queue%", "exec%"},
	}
	for i, app := range apps {
		c := outs[i].Comparison
		f.Rows = append(f.Rows, AppRow{App: app.Name, Values: []float64{
			100 * c.OnChipNetImprovement(),
			100 * c.OffChipNetImprovement(),
			100 * c.MemImprovement(),
			100 * c.QueueImprovement(),
			100 * c.ExecImprovement(),
		}})
	}
	f.finish()
	return f, nil
}

// execSuite runs the comparison across several machine variants and
// reports one exec-improvement column per variant.
func execSuite(cfg Config, id, title string, variants []variant) (*FigResult, error) {
	apps, outs, err := cfg.runSuite(runner.ModeCompare, variants...)
	if err != nil {
		return nil, err
	}
	f := &FigResult{ID: id, Title: title}
	for _, v := range variants {
		f.Columns = append(f.Columns, v.name+" exec%")
	}
	for i, app := range apps {
		row := AppRow{App: app.Name}
		for j := range variants {
			c := outs[i*len(variants)+j].Comparison
			row.Values = append(row.Values, 100*c.ExecImprovement())
		}
		f.Rows = append(f.Rows, row)
	}
	f.finish()
	return f, nil
}

// result is what every experiment returns: a fixed-width table of numbers
// that also encode as JSON, for plotters and regression trackers that
// should not parse tables (benchtab -json).
type result interface {
	Table() string
}

// experiment is one row of the experiment table: an ID and the function
// that runs it.
type experiment struct {
	id  string
	run func(Config) (result, error)
}

// exp adapts a typed experiment function to the table's signature.
func exp[R result](id string, run func(Config) (R, error)) experiment {
	return experiment{id, func(cfg Config) (result, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// experimentTable is the one experiment table, in the order benchtab -exp
// all runs it.
var experimentTable = []experiment{
	exp("fig3", Fig3), exp("fig4", Fig4), exp("table2", Table2),
	exp("fig13", Fig13), exp("fig14", Fig14), exp("fig15", Fig15),
	exp("fig16", Fig16), exp("fig17", Fig17), exp("fig18", Fig18),
	exp("fig19", Fig19), exp("fig20", Fig20), exp("fig21", Fig21),
	exp("fig22", Fig22), exp("fig23", Fig23), exp("fig24", Fig24),
	exp("fig25", Fig25), exp("figmig", FigMig), exp("figmix", FigMix),
	exp("figtune", FigTune),
}

// AllIDs lists the experiment identifiers benchtab accepts, in table order.
func AllIDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// runByID executes one experiment by ID, matched case-insensitively. Its
// errors, and only its, carry the experiment ID.
func runByID(id string, cfg Config) (result, error) {
	for _, e := range experimentTable {
		if strings.EqualFold(e.id, id) {
			r, err := e.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.id, err)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(AllIDs(), ", "))
}

// Run executes one experiment by ID and returns its rendered table.
func Run(id string, cfg Config) (string, error) {
	r, err := runByID(id, cfg)
	if err != nil {
		return "", err
	}
	return r.Table(), nil
}

// RunJSON executes one experiment by ID and returns its JSON encoding.
func RunJSON(id string, cfg Config) ([]byte, error) {
	r, err := runByID(id, cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}
