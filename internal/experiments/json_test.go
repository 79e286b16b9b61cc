package experiments

import (
	"encoding/json"
	"testing"
)

func TestRunJSON(t *testing.T) {
	cfg := fastCfg()
	// IDs match case-insensitively, as they do for Run.
	for _, id := range []string{"table2", "TABLE2", "fig13", "fig15", "fig25"} {
		raw, err := RunJSON(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var v map[string]any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", id, err)
		}
		if v["id"] == "" || v["id"] == nil {
			t.Errorf("%s: missing id field", id)
		}
	}
	if _, err := RunJSON("nope", cfg); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFigResultJSONShape(t *testing.T) {
	f := &FigResult{
		ID: "FigX", Title: "t", Columns: []string{"a"},
		Rows:    []AppRow{{App: "apsi", Values: []float64{1.5}}},
		Average: []float64{1.5},
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID   string `json:"id"`
		Rows []struct {
			App    string    `json:"app"`
			Values []float64 `json:"values"`
		} `json:"rows"`
		Average []float64 `json:"average"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != "FigX" || len(v.Rows) != 1 || v.Rows[0].Values[0] != 1.5 || v.Average[0] != 1.5 {
		t.Errorf("round trip: %+v", v)
	}
}
