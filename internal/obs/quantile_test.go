package obs

import (
	"reflect"
	"testing"
)

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 5)
	if !reflect.DeepEqual(got, []int64{1, 2, 4, 8, 16}) {
		t.Fatalf("ExponentialBuckets(1,2,5) = %v", got)
	}
	got = ExponentialBuckets(10, 10, 3)
	if !reflect.DeepEqual(got, []int64{10, 100, 1000}) {
		t.Fatalf("ExponentialBuckets(10,10,3) = %v", got)
	}
	for _, bad := range [][3]int64{{0, 2, 5}, {1, 1, 5}, {1, 2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExponentialBuckets(%v) did not panic", bad)
				}
			}()
			ExponentialBuckets(bad[0], bad[1], int(bad[2]))
		}()
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	// 10 observations spread uniformly in (10, 20]: the second bucket.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	// Median rank 5 of 10 → halfway through the (10,20] bucket.
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("p50 = %v, want 15", got)
	}
	if got := h.Quantile(1.0); got != 20 {
		t.Errorf("p100 = %v, want 20 (bucket upper bound)", got)
	}
	// First bucket interpolates from zero.
	h2 := NewHistogram([]int64{10})
	h2.Observe(5)
	h2.Observe(5)
	if got := h2.Quantile(0.5); got != 5 {
		t.Errorf("single-bucket p50 = %v, want 5", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v", got)
	}
	empty := NewHistogram([]int64{1, 2})
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
	// Overflow observations clamp to the last bound.
	h := NewHistogram([]int64{1, 2})
	h.Observe(100)
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want 2", got)
	}
	// Out-of-range p clamps instead of misbehaving.
	h3 := NewHistogram([]int64{4})
	h3.Observe(2)
	if got := h3.Quantile(-1); got != h3.Quantile(0) {
		t.Errorf("p<0 not clamped: %v vs %v", got, h3.Quantile(0))
	}
	if got := h3.Quantile(2); got != h3.Quantile(1) {
		t.Errorf("p>1 not clamped: %v vs %v", got, h3.Quantile(1))
	}
}

func TestQuantileSkipsEmptyBuckets(t *testing.T) {
	h := NewHistogram([]int64{1, 2, 4, 8, 16})
	h.Observe(1)  // first bucket
	h.Observe(16) // last bucket; middle three stay empty
	if got := h.Quantile(0.95); got <= 8 || got > 16 {
		t.Errorf("p95 = %v, want within (8, 16]", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	h := NewHistogram([]int64{1, 2})
	h.Observe(1)
	c := h.Clone()
	h.Observe(1)
	if c.Total() != 1 || h.Total() != 2 {
		t.Fatalf("clone shares state: clone=%d orig=%d", c.Total(), h.Total())
	}
	if var2 := (*Histogram)(nil).Clone(); var2 != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestMergeHistogramBoundsMismatchPanics(t *testing.T) {
	a := NewHistogram([]int64{0, 1})
	a.Observe(0)
	m := NewHistogram([]int64{0, 5})
	m.Observe(0)
	defer func() {
		if recover() == nil {
			t.Error("mismatched bounds merged silently")
		}
	}()
	m.Absorb(a)
}
