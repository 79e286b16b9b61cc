package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	// Counters must be safe for concurrent increment (run under -race).
	reg := NewRegistry()
	c := reg.Counter("test", "hits")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test", "lat", LinearBuckets(0, 10, 8))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(int64(w * 25))
			}
		}()
	}
	wg.Wait()
	if got := h.Total(); got != 20000 {
		t.Errorf("total = %d, want 20000", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]int64{0, 1, 2, 5})
	// Bucket semantics: bucket i counts bounds[i-1] < v <= bounds[i];
	// values above the last bound land in the overflow bucket.
	for _, v := range []int64{-3, 0} {
		h.Observe(v) // v <= 0
	}
	h.Observe(1) // exactly on an edge: bucket of bound 1
	h.Observe(2) // bucket of bound 2
	for _, v := range []int64{3, 4, 5} {
		h.Observe(v) // (2, 5]
	}
	h.Observe(6) // overflow
	want := []int64{2, 1, 1, 3, 1}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if h.Total() != 8 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Sum() != -3+0+1+2+3+4+5+6 {
		t.Errorf("sum = %d", h.Sum())
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]int64{{}, {3, 3}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestTimeWeightedGauge(t *testing.T) {
	var g TimeWeighted
	g.Set(0, 2)  // level 2 over [0,10)
	g.Set(10, 6) // level 6 over [10,20)
	g.Set(20, 0) // level 0 over [20,40]
	if got := g.Avg(40); got != (2*10+6*10)/40.0 {
		t.Errorf("avg = %v", got)
	}
	// Avg extends the last level to `until`.
	g.Set(40, 4)
	if got := g.Avg(50); got != (2*10+6*10+4*10)/50.0 {
		t.Errorf("extended avg = %v", got)
	}
	if g.Avg(0) != 0 {
		t.Errorf("avg over empty interval")
	}
	if g.Value() != 4 {
		t.Errorf("value = %d", g.Value())
	}
}

func TestRegistryReregistrationAndKinds(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "n", "k=v")
	b := reg.Counter("c", "n", "k=v")
	if a != b {
		t.Error("re-registration returned a different handle")
	}
	if reg.Counter("c", "n", "k=w") == a {
		t.Error("different labels shared a handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch accepted")
		}
	}()
	reg.TimeWeighted("c", "n", "k=v")
}

// TestLabelOrder: labels are k=v strings kept sorted by key, whatever
// order the caller passes them in, so the registry key is
// component/name{k=v,...} in key order ("a" before "a-b", although '-'
// sorts before '='), the same labels in any order find one handle, the
// snapshot's Labels map holds each pair, and a key given twice is refused.
func TestLabelOrder(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "n", "a-b=2", "a=1", "z=(0,1)")
	if b := reg.Counter("c", "n", "z=(0,1)", "a=1", "a-b=2"); b != a {
		t.Error("the same labels in another order got another handle")
	}
	var keys []string
	for k := range reg.metrics {
		keys = append(keys, k)
	}
	if len(keys) != 1 || keys[0] != "c/n{a=1,a-b=2,z=(0,1)}" {
		t.Errorf("registry keys %q, want [c/n{a=1,a-b=2,z=(0,1)}]", keys)
	}
	pts := reg.Snapshot(0)
	if want := map[string]string{"a": "1", "a-b": "2", "z": "(0,1)"}; len(pts) != 1 || !reflect.DeepEqual(pts[0].Labels, want) {
		t.Errorf("snapshot %+v, want one point labelled %v", pts, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("a label key given twice was accepted")
		}
	}()
	reg.Counter("c", "n", "k=1", "k=2")
}

func TestNilSafety(t *testing.T) {
	// Every handle must be a no-op when nil, so uninstrumented components
	// need no branches of their own.
	var c *Counter
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var tw *TimeWeighted
	tw.Set(1, 2)
	if tw.Avg(10) != 0 || tw.Value() != 0 {
		t.Error("nil timeweighted")
	}
	var h *Histogram
	h.Observe(1)
	if h.Counts() != nil || h.Total() != 0 {
		t.Error("nil histogram")
	}
	var reg *Registry
	if reg.Counter("a", "b") != nil || reg.Snapshot(0) != nil || reg.Sum("a", "b") != 0 {
		t.Error("nil registry")
	}
}

func TestSnapshotAndJSONL(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("noc", "messages", "class=on-chip").Add(7)
	reg.TimeWeighted("sim", "outstanding").Set(0, 64)
	reg.TimeWeighted("dram", "queue_len", "mc=0").Set(0, 2)
	reg.Histogram("noc", "hops", LinearBuckets(0, 1, 4)).Observe(2)

	points := reg.Snapshot(10)
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	// Snapshot is sorted by component/name/labels for deterministic dumps.
	if points[0].Component != "dram" || points[1].Name != "hops" {
		t.Errorf("order: %+v", points)
	}
	for _, p := range points {
		if p.Component == "dram" && p.Avg != 2.0 {
			t.Errorf("timeweighted avg = %v", p.Avg)
		}
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d JSONL lines", len(lines))
	}
	for _, line := range lines {
		var p Point
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}

	if got := reg.Sum("noc", "messages"); got != 7 {
		t.Errorf("Sum = %d", got)
	}
}

func TestLabelValidation(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("malformed label accepted")
		}
	}()
	reg.Counter("a", "b", "not-a-pair")
}

func TestLinearBuckets(t *testing.T) {
	got := LinearBuckets(5, 3, 3)
	want := []int64{5, 8, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinearBuckets = %v", got)
		}
	}
}
