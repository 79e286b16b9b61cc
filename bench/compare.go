package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec() (*spec, error) {
	path := "BENCHMARK.json"
	if benchDir() == "." {
		path = filepath.Join("..", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// values collects a metric's values over a record's untraced runs of one
// workload.
func (r *record) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace != 0 {
			continue
		}
		if m, ok := run.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// probes collects the median probe times of a record's untraced runs.
func (r *record) probes() []float64 {
	var out []float64
	for _, run := range r.Runs {
		if p, ok := run.Unscaled["probe_s"]; ok {
			out = append(out, p)
		}
	}
	return out
}

// verdict judges head against base for one metric. The change is worse or
// better only when the medians differ by more than the bound; when either
// side's spread (quartile distance over median) exceeds the bound the
// verdict is unresolved, unless every head run beats every base run.
func verdict(base, head []float64, lowerBetter bool, bound float64) string {
	mb, mh := median(base), median(head)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	rel := sign * (mh - mb) / math.Abs(mb) // > 0: head is worse
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(median(xs))
	}
	if spread(base) > bound || spread(head) > bound {
		bs, hs := sorted(base), sorted(head)
		bestBase, worstHead := bs[0], hs[len(hs)-1]
		if !lowerBetter {
			bestBase, worstHead = bs[len(bs)-1], hs[0]
		}
		if sign*(worstHead-bestBase) < 0 {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case rel > bound:
		return "worse"
	case rel < -bound:
		return "better"
	}
	return "same"
}

// compareRecords prints one row per workload and end-to-end metric and
// reports whether any verdict is "worse".
func compareRecords(w io.Writer, basePath, headPath string) (bool, error) {
	s, err := loadSpec()
	if err != nil {
		return false, err
	}
	base, err := loadRecord(basePath)
	if err != nil {
		return false, err
	}
	head, err := loadRecord(headPath)
	if err != nil {
		return false, err
	}
	if base.Host != head.Host {
		fmt.Fprintf(w, "note: hosts differ: base %+v, head %+v\n", base.Host, head.Host)
	}
	// Host times are scaled to the calibration host's speed with one
	// exponent for every workload; when the two sides ran at different
	// host speeds, the exponent's error shows as a difference (probe.go).
	if bp, hp := base.probes(), head.probes(); len(bp) > 0 && len(hp) > 0 {
		fmt.Fprintf(w, "median probe: base %.2f ms, head %.2f ms\n", 1e3*median(bp), 1e3*median(hp))
	}
	var names []string
	seen := map[string]bool{}
	for _, run := range append(append([]recordRun(nil), base.Runs...), head.Runs...) {
		if !seen[run.Workload] {
			seen[run.Workload] = true
			names = append(names, run.Workload)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-21s %12s %12s %12s %12s %12s %12s %7s  %s\n",
		"workload", "metric", "base.q1", "base.med", "base.q3", "head.q1", "head.med", "head.q3", "bound", "verdict")
	worse := false
	for _, wl := range names {
		for _, m := range s.EndToEnd {
			b, h := base.values(wl, m.Name), head.values(wl, m.Name)
			if len(b) == 0 || len(h) == 0 {
				fmt.Fprintf(w, "%-13s %-21s missing in one record\n", wl, m.Name)
				worse = true
				continue
			}
			v := verdict(b, h, m.Better == "lower", m.Bound)
			worse = worse || v == "worse"
			bq1, bq3 := quartiles(b)
			hq1, hq3 := quartiles(h)
			fmt.Fprintf(w, "%-13s %-21s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %7.2g  %s\n",
				wl, m.Name, bq1, median(b), bq3, hq1, median(h), hq3, m.Bound, v)
		}
	}
	return worse, nil
}
