package experiments

import (
	"fmt"
	"strings"

	"offchip/internal/layout"
	"offchip/internal/runner"
	"offchip/internal/stats"
)

// MapResult is the Figure 13 pair of per-node access-distribution maps for
// one controller: the fraction of the controller's off-chip requests issued
// by each node, before and after the optimization.
type MapResult struct {
	ID        string    `json:"id"`
	Title     string    `json:"title"`
	MC        int       `json:"mc"`
	MeshX     int       `json:"meshX"`
	Original  []float64 `json:"original"` // per node (row-major), sums to 1
	Optimized []float64 `json:"optimized"`

	// QuadrantShare is the fraction of the controller's traffic coming
	// from its own cluster's nodes — the "skew" Figure 13 visualizes.
	QuadrantShareOriginal  float64 `json:"quadrantShareOriginal"`
	QuadrantShareOptimized float64 `json:"quadrantShareOptimized"`
}

// Fig13 reproduces Figure 13: the distribution across nodes of apsi's
// off-chip accesses to controller MC0 (the paper's MC1, top-left corner),
// original vs optimized. In the original, requests come from all over the
// chip; optimized, they skew to the nearby quadrant. The maps are the
// baseline and optimized runs' per-node, per-MC access maps.
func Fig13(cfg Config) (*MapResult, error) {
	apps, err := cfg.apps()
	if err != nil {
		return nil, err
	}
	target := apps[0]
	for _, a := range apps {
		if a.Name == "apsi" {
			target = a
		}
	}
	res, err := cfg.runJobs([]runner.JobSpec{cfg.job(runner.JobSpec{}, runner.ModeCompare, target.Name)})
	if err != nil {
		return nil, err
	}
	o := res.Outcomes[0]
	m, cm, _, err := o.Spec.Build()
	if err != nil {
		return nil, err
	}
	c := o.Comparison
	r := &MapResult{
		ID:    "Fig13",
		Title: fmt.Sprintf("distribution of %s's off-chip accesses to MC0", target.Name),
		MC:    0,
		MeshX: m.MeshX,
	}
	r.Original, r.QuadrantShareOriginal = mcMap(c.Baseline.AccessMap, 0, cm)
	r.Optimized, r.QuadrantShareOptimized = mcMap(c.Optimized.AccessMap, 0, cm)
	return r, nil
}

func mcMap(accessMap [][]int64, mc int, cm *layout.ClusterMapping) ([]float64, float64) {
	out := make([]float64, len(accessMap))
	var total, local int64
	for node := range accessMap {
		total += accessMap[node][mc]
	}
	if total == 0 {
		return out, 0
	}
	for node := range accessMap {
		out[node] = float64(accessMap[node][mc]) / float64(total)
		if cm.ClusterOf(node)*cm.K == mc {
			local += accessMap[node][mc]
		}
	}
	return out, float64(local) / float64(total)
}

// Table renders the two maps as per-mille heat grids.
func (r *MapResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	render := func(name string, m []float64, share float64) {
		fmt.Fprintf(&b, "%s (%.0f%% from MC%d's own cluster), per-mille per node:\n", name, 100*share, r.MC)
		for y := 0; y*r.MeshX < len(m); y++ {
			for x := 0; x < r.MeshX; x++ {
				fmt.Fprintf(&b, "%4d", int(m[y*r.MeshX+x]*1000+0.5))
			}
			b.WriteByte('\n')
		}
	}
	render("original", r.Original, r.QuadrantShareOriginal)
	render("optimized", r.Optimized, r.QuadrantShareOptimized)
	return b.String()
}

// CDFResult is Figure 15: the cumulative distribution of links traversed
// by on-chip and off-chip requests, original vs optimized, averaged over
// the application suite.
type CDFResult struct {
	ID          string    `json:"id"`
	Title       string    `json:"title"`
	OnChipBase  []float64 `json:"onchipOriginal"`
	OnChipOpt   []float64 `json:"onchipOptimized"`
	OffChipBase []float64 `json:"offchipOriginal"`
	OffChipOpt  []float64 `json:"offchipOptimized"`
}

// Fig15 reproduces Figure 15: each job's per-run hop CDFs, averaged
// across the suite.
func Fig15(cfg Config) (*CDFResult, error) {
	apps, outs, err := cfg.runSuite(runner.ModeCompare, variant{})
	if err != nil {
		return nil, err
	}
	r := &CDFResult{ID: "Fig15", Title: "CDF of links traversed per request"}
	for _, o := range outs {
		c := o.Comparison
		// A sampled run's representative window may send no message of a
		// class; its CDF is then nil and counts as all zeros, one entry
		// per hop count 0..diameter.
		cdf := func(s []float64) []float64 {
			if s == nil {
				return make([]float64, c.Machine.MeshX+c.Machine.MeshY-1)
			}
			return s
		}
		r.OnChipBase = accumulate(r.OnChipBase, cdf(c.Baseline.HopCDFOn))
		r.OnChipOpt = accumulate(r.OnChipOpt, cdf(c.Optimized.HopCDFOn))
		r.OffChipBase = accumulate(r.OffChipBase, cdf(c.Baseline.HopCDFOff))
		r.OffChipOpt = accumulate(r.OffChipOpt, cdf(c.Optimized.HopCDFOff))
	}
	for _, s := range [][]float64{r.OnChipBase, r.OnChipOpt, r.OffChipBase, r.OffChipOpt} {
		for i := range s {
			s[i] /= float64(len(apps))
		}
	}
	return r, nil
}

func accumulate(dst, src []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(src))
	}
	for i := range dst {
		if i < len(src) {
			dst[i] += src[i]
		} else {
			dst[i] += 1
		}
	}
	return dst
}

// AtOrBelow returns the fraction of the given series' requests that
// traverse at most h links.
func (r *CDFResult) AtOrBelow(series []float64, h int) float64 {
	if h >= len(series) {
		return 1
	}
	return series[h]
}

// Table renders the four CDFs.
func (r *CDFResult) Table() string {
	t := &stats.Table{
		Title:   fmt.Sprintf("%s: %s", r.ID, r.Title),
		Headers: []string{"links<=", "onchip-orig%", "onchip-opt%", "offchip-orig%", "offchip-opt%"},
	}
	for h := 0; h < len(r.OffChipBase); h++ {
		t.AddF(fmt.Sprintf("%d", h),
			100*r.OnChipBase[h], 100*r.OnChipOpt[h],
			100*r.OffChipBase[h], 100*r.OffChipOpt[h])
	}
	return t.String()
}
