package prof

import (
	"fmt"
	"io"
	"sort"

	"offchip/internal/obs"
	"offchip/internal/stats"
)

// Differential attribution: where did a scheme's speedup come from? The
// components partition each access's latency exactly, so the per-access
// component deltas between two runs sum to the per-access end-to-end
// latency delta — every saved cycle is accounted to a stage.

// DiffTable tabulates baseline-vs-optimized attribution per component:
// mean cycles per access in each run, the delta, and the delta's share of
// the end-to-end per-access latency change. Shares sum to 100% (of the
// absolute delta) because the components partition the latency.
func DiffTable(title string, base, opt *Profile) *stats.Table {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"stage", "substage", "base cyc/acc", "opt cyc/acc", "delta", "share"},
	}
	if base == nil || opt == nil || base.Accesses == 0 || opt.Accesses == 0 {
		return t
	}
	totalDelta := float64(opt.EndToEnd)/float64(opt.Accesses) - float64(base.EndToEnd)/float64(base.Accesses)
	for c := Component(0); c < NumComponents; c++ {
		b, o := base.PerAccess(c), opt.PerAccess(c)
		if b == 0 && o == 0 {
			continue
		}
		d := o - b
		share := "n/a"
		if totalDelta != 0 {
			share = stats.Pct(d / totalDelta)
		}
		t.AddF(compStage[c], compSub[c],
			fmt.Sprintf("%.2f", b), fmt.Sprintf("%.2f", o), fmt.Sprintf("%+.2f", d), share)
	}
	t.AddF("end-to-end", "total",
		fmt.Sprintf("%.2f", float64(base.EndToEnd)/float64(base.Accesses)),
		fmt.Sprintf("%.2f", float64(opt.EndToEnd)/float64(opt.Accesses)),
		fmt.Sprintf("%+.2f", totalDelta), "100.0%")
	return t
}

// AttributionTable tabulates one run's attribution: total cycles, mean
// cycles per access, and share of end-to-end latency per component.
func AttributionTable(title string, p *Profile) *stats.Table {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"stage", "substage", "cycles", "cyc/acc", "share"},
	}
	if p == nil || p.Accesses == 0 {
		return t
	}
	for c := Component(0); c < NumComponents; c++ {
		if p.Comp[c] == 0 {
			continue
		}
		share := "n/a"
		if p.EndToEnd != 0 {
			share = stats.Pct(float64(p.Comp[c]) / float64(p.EndToEnd))
		}
		t.AddF(compStage[c], compSub[c], p.Comp[c], fmt.Sprintf("%.2f", p.PerAccess(c)), share)
	}
	t.AddF("end-to-end", "total", p.EndToEnd,
		fmt.Sprintf("%.2f", float64(p.EndToEnd)/float64(p.Accesses)), "100.0%")
	return t
}

// QuantileTable tabulates p50/p95/p99 of the per-visit latency of every
// stage plus the end-to-end distribution, read from the profile's
// histograms via obs.Histogram.Quantile.
func QuantileTable(title string, p *Profile) *stats.Table {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"stage", "visits", "p50", "p95", "p99"},
	}
	if p == nil {
		return t
	}
	row := func(name string, h *obs.Histogram) {
		if h.Total() == 0 {
			return
		}
		t.AddF(name, h.Total(),
			fmt.Sprintf("%.1f", h.Quantile(0.50)),
			fmt.Sprintf("%.1f", h.Quantile(0.95)),
			fmt.Sprintf("%.1f", h.Quantile(0.99)))
	}
	for _, s := range StageNames {
		if h := p.Stages[s]; h != nil && h.Total() > 0 {
			row(s, h)
		}
	}
	row("end-to-end", p.End)
	return t
}

// PrintAttribution prints the latency attribution of profiles (run name →
// profile) on w: the baseline vs optimized differential table when both
// runs were profiled, otherwise one attribution table per profiled run,
// then the optimized run's stage latency quantiles. scope starts every
// title ("" for one job, "sweep " for a sum over jobs). Each profiler
// violation is one line on errw, after cmd, the printing command's name.
func PrintAttribution(w, errw io.Writer, cmd, scope string, profiles map[string]*Profile) {
	runs := make([]string, 0, len(profiles))
	for run := range profiles {
		runs = append(runs, run)
	}
	sort.Strings(runs)
	for _, run := range runs {
		for _, v := range profiles[run].Violations {
			fmt.Fprintf(errw, "%s: prof %-9s VIOLATION %s\n", cmd, run, v)
		}
	}
	title := scope + "latency attribution"
	if base, opt := profiles["baseline"], profiles["optimized"]; base != nil && opt != nil {
		fmt.Fprintln(w, DiffTable(title+" (cycles/access, baseline vs optimized)", base, opt).String())
	} else {
		for _, run := range runs {
			fmt.Fprintln(w, AttributionTable(title+": "+run, profiles[run]).String())
		}
	}
	if opt := profiles["optimized"]; opt != nil {
		fmt.Fprintln(w, QuantileTable(scope+"optimized run stage latency quantiles (cycles)", opt).String())
	}
}

// StageSummary is the JSON-friendly projection of one component, served by
// the live plane's /profile endpoint and the run manifest.
type StageSummary struct {
	Stage     string  `json:"stage"`
	Substage  string  `json:"substage"`
	Cycles    int64   `json:"cycles"`
	PerAccess float64 `json:"per_access"`
	Share     float64 `json:"share"` // fraction of end-to-end cycles
}

// Summary is the JSON-friendly projection of a whole profile.
type Summary struct {
	Accesses   int64          `json:"accesses"`
	EndToEnd   int64          `json:"end_to_end_cycles"`
	Attributed int64          `json:"attributed_cycles"`
	P50        float64        `json:"p50"`
	P95        float64        `json:"p95"`
	P99        float64        `json:"p99"`
	Components []StageSummary `json:"components"`
}

// Summarize projects the profile for JSON serialization.
func (p *Profile) Summarize() Summary {
	s := Summary{Accesses: p.Accesses, EndToEnd: p.EndToEnd, Attributed: p.Attributed()}
	if p.End != nil {
		s.P50 = p.End.Quantile(0.50)
		s.P95 = p.End.Quantile(0.95)
		s.P99 = p.End.Quantile(0.99)
	}
	for c := Component(0); c < NumComponents; c++ {
		if c < Component(len(p.Comp)) && p.Comp[c] != 0 {
			share := 0.0
			if p.EndToEnd != 0 {
				share = float64(p.Comp[c]) / float64(p.EndToEnd)
			}
			s.Components = append(s.Components, StageSummary{
				Stage: compStage[c], Substage: compSub[c],
				Cycles: p.Comp[c], PerAccess: p.PerAccess(c), Share: share,
			})
		}
	}
	return s
}

// StageTotals returns "stage;substage" → cycles for the manifest.
func (p *Profile) StageTotals() map[string]int64 {
	out := map[string]int64{}
	for c := Component(0); c < NumComponents; c++ {
		if c < Component(len(p.Comp)) && p.Comp[c] != 0 {
			out[compStage[c]+";"+compSub[c]] = p.Comp[c]
		}
	}
	return out
}
