package stats

import (
	"strings"
	"testing"
)

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 80); got != 0.2 {
		t.Errorf("Improvement = %v", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Errorf("zero baseline = %v", got)
	}
	if got := Improvement(50, 75); got != -0.5 {
		t.Errorf("regression = %v", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.205); got != "20.5%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tab := &Table{Headers: []string{"x", "longheader"}}
	tab.Add("aaaaaaaa", "1")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	// The second column starts at the same offset in every line: cells are
	// padded to the widest cell of column one plus the two-space gap.
	idx := strings.Index(lines[2], "1")
	if idx != len("aaaaaaaa")+2 {
		t.Errorf("second column at %d:\n%s", idx, out)
	}
	if strings.Index(lines[1], "-") != 0 || len(lines[1]) < idx {
		t.Errorf("separator misaligned:\n%s", out)
	}
	// Cells beyond the header count are dropped in rendering.
	tab2 := &Table{Headers: []string{"only"}}
	tab2.Add("a", "extra")
	if strings.Contains(tab2.String(), "extra") {
		t.Errorf("extra cell rendered: %q", tab2.String())
	}
}

func TestWeightedSpeedup(t *testing.T) {
	// Two apps, each running at half speed when shared: WS = 1.0.
	if got := WeightedSpeedup([]int64{100, 200}, []int64{200, 400}); got != 1.0 {
		t.Errorf("WeightedSpeedup = %v", got)
	}
	// No slowdown: WS = number of apps.
	if got := WeightedSpeedup([]int64{100, 100}, []int64{100, 100}); got != 2.0 {
		t.Errorf("ideal WS = %v", got)
	}
	// Zero shared time skipped.
	if got := WeightedSpeedup([]int64{100}, []int64{0}); got != 0 {
		t.Errorf("zero shared = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch accepted")
		}
	}()
	WeightedSpeedup([]int64{1}, []int64{1, 2})
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"app", "value"},
	}
	tab.Add("apsi", "35.2")
	tab.AddF("swim", 20.25)
	tab.AddF("n", 7)
	tab.AddF("n64", int64(9))
	tab.AddF("other", struct{}{})
	out := tab.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "20.2") { // %.1f
		t.Errorf("float formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 5 rows.
	if len(lines) != 8 {
		t.Errorf("%d lines:\n%s", len(lines), out)
	}
	// Columns align: header and first row have the same prefix width.
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator row: %q", lines[2])
	}
}

func TestTableShortRow(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b", "c"}}
	tab.Add("only")
	out := tab.String()
	if !strings.Contains(out, "only") {
		t.Error("short row dropped")
	}
}

func TestCumulativeFractions(t *testing.T) {
	got := CumulativeFractions([]int64{1, 0, 3})
	want := []float64{0.25, 0.25, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cdf[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for i, v := range CumulativeFractions([]int64{0, 0}) {
		if v != 0 {
			t.Errorf("empty histogram cdf[%d] = %v, want 0", i, v)
		}
	}
	if out := CumulativeFractions(nil); len(out) != 0 {
		t.Errorf("nil counts gave %v", out)
	}
}
