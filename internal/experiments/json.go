package experiments

import "encoding/json"

// JSON serializations let downstream tooling (plotters, regression
// trackers) consume regenerated experiments without parsing tables.
// cmd/benchtab exposes them behind -json.

// MarshalJSON renders the result as {id, title, columns, rows, average}.
func (f *FigResult) MarshalJSON() ([]byte, error) {
	type row struct {
		App    string    `json:"app"`
		Values []float64 `json:"values"`
	}
	out := struct {
		ID      string    `json:"id"`
		Title   string    `json:"title"`
		Columns []string  `json:"columns"`
		Rows    []row     `json:"rows"`
		Average []float64 `json:"average,omitempty"`
	}{ID: f.ID, Title: f.Title, Columns: f.Columns, Average: f.Average}
	for _, r := range f.Rows {
		out.Rows = append(out.Rows, row{App: r.App, Values: r.Values})
	}
	return json.Marshal(out)
}

// MarshalJSON renders the Figure 13 maps.
func (r *MapResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID                string    `json:"id"`
		Title             string    `json:"title"`
		MC                int       `json:"mc"`
		MeshX             int       `json:"meshX"`
		Original          []float64 `json:"original"`
		Optimized         []float64 `json:"optimized"`
		QuadrantOriginal  float64   `json:"quadrantShareOriginal"`
		QuadrantOptimized float64   `json:"quadrantShareOptimized"`
	}{r.ID, r.Title, r.MC, r.MeshX, r.Original, r.Optimized,
		r.QuadrantShareOriginal, r.QuadrantShareOptimized})
}

// MarshalJSON renders the Figure 15 CDFs.
func (r *CDFResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID          string    `json:"id"`
		Title       string    `json:"title"`
		OnChipBase  []float64 `json:"onchipOriginal"`
		OnChipOpt   []float64 `json:"onchipOptimized"`
		OffChipBase []float64 `json:"offchipOriginal"`
		OffChipOpt  []float64 `json:"offchipOptimized"`
	}{r.ID, r.Title, r.OnChipBase, r.OnChipOpt, r.OffChipBase, r.OffChipOpt})
}

// MarshalJSON renders the Figure 25 mixes.
func (r *MixResult) MarshalJSON() ([]byte, error) {
	type row struct {
		Mix         string  `json:"mix"`
		WSBaseline  float64 `json:"wsBaseline"`
		WSOptimized float64 `json:"wsOptimized"`
		Improvement float64 `json:"improvementPct"`
	}
	out := struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Rows  []row  `json:"rows"`
	}{ID: r.ID, Title: r.Title}
	for _, m := range r.Rows {
		out.Rows = append(out.Rows, row{m.Mix, m.WSBaseline, m.WSOptimized, m.ImprovementP})
	}
	return json.Marshal(out)
}
