// Package obs is the simulator-wide metrics layer: a lock-cheap registry of
// counters, time-weighted gauges and fixed-bucket histograms, keyed by
// component/name/labels. Every simulation substrate — NoC, caches, memory
// controllers, and the sim front end — keeps its statistics in plain fields
// and publishes them here through a Feed. The registry serves the -report
// dashboard, the JSONL metrics dumps and the live /metrics plane; the
// figures read the same numbers from each run's result. Per-access
// observation (what one access did, stage by stage) is the probe stream's
// job (internal/probe), not this package's.
//
// Handles are obtained once at registration and updated atomically; every
// handle method is nil-safe, so an uninstrumented component pays only a nil
// check.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready;
// all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// TimeWeighted is a gauge that integrates its value over simulated time, so
// a time-averaged level (bank-queue occupancy, outstanding misses) can be
// read at the end of a run. The writer supplies the simulation clock on
// every Set; reads may race with writes only across runs, so a small mutex
// suffices.
type TimeWeighted struct {
	mu       sync.Mutex
	integral int64 // Σ value·dt up to last
	last     int64
	cur      int64
}

// Set records that the level changed to value at time now. Time must be
// non-decreasing across calls.
func (g *TimeWeighted) Set(now, value int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.integral += g.cur * (now - g.last)
	g.last = now
	g.cur = value
	g.mu.Unlock()
}

// Value returns the current level.
func (g *TimeWeighted) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// raw returns the gauge's internal (integral, last) pair — with Value, the
// complete state, so a snapshot can reconstruct the gauge exactly.
func (g *TimeWeighted) raw() (integral, last int64) {
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.integral, g.last
}

// Avg returns the time-averaged level over [0, until], extending the last
// recorded level to until. A non-positive until yields 0.
func (g *TimeWeighted) Avg(until int64) float64 {
	if g == nil || until <= 0 {
		return 0
	}
	g.mu.Lock()
	integral := g.integral + g.cur*(until-g.last)
	g.mu.Unlock()
	return float64(integral) / float64(until)
}

// Histogram counts observations into fixed buckets. Bucket i counts values
// v ≤ bounds[i] (and > bounds[i-1]); one implicit overflow bucket catches
// values above the last bound. All methods are nil-safe.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	total  atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d", i))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(bounds)+1)}
}

// LinearBuckets returns n bucket bounds start, start+width, ….
func LinearBuckets(start, width int64, n int) []int64 {
	if n <= 0 || width <= 0 {
		panic("obs: linear buckets need n > 0, width > 0")
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*width
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search is overkill for the short fixed bucket lists the
	// simulator uses (hop counts, latency decades); scan instead.
	i := len(h.bounds)
	for j, b := range h.bounds {
		if v <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns the per-bucket counts; the final element is the overflow
// bucket.
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// metric is one registered instrument.
type metric struct {
	component string
	name      string
	labels    []string // "k=v" pairs sorted by key
	kind      string

	counter *Counter
	tw      *TimeWeighted
	hist    *Histogram
}

// Registry holds every registered metric, keyed by component, name, and
// labels. Registration takes a mutex; the returned handles are lock-free.
// Registering the same key twice returns the same handle, so components can
// be rebuilt against a shared registry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// labelKey returns the key of a "k=v" label.
func labelKey(l string) string {
	k, _, ok := strings.Cut(l, "=")
	if !ok {
		panic(fmt.Sprintf("obs: label %q is not k=v", l))
	}
	return k
}

func byKey(a, b string) int { return strings.Compare(labelKey(a), labelKey(b)) }

// sortLabels returns a copy of the "k=v" labels in key order. A key may
// appear once. The copy is a new variable, not the parameter reassigned, so
// the caller's variadic array stays on its stack.
func sortLabels(labels []string) []string {
	sorted := append([]string(nil), labels...)
	for _, l := range sorted {
		labelKey(l)
	}
	if !slices.IsSortedFunc(sorted, byKey) {
		slices.SortStableFunc(sorted, byKey)
	}
	for i := 1; i < len(sorted); i++ {
		if byKey(sorted[i-1], sorted[i]) == 0 {
			panic(fmt.Sprintf("obs: label key %q given twice", labelKey(sorted[i])))
		}
	}
	return sorted
}

func (r *Registry) register(component, name, kind string, labels []string, bounds []int64) *metric {
	sorted := sortLabels(labels)
	key := component + "/" + name + "{" + strings.Join(sorted, ",") + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", key, m.kind, kind))
		}
		return m
	}
	// The handle is built under the lock, so a concurrent Snapshot never
	// sees a half-registered metric.
	m := &metric{component: component, name: name, kind: kind}
	if len(sorted) > 0 {
		m.labels = sorted
	}
	switch kind {
	case "counter":
		m.counter = &Counter{}
	case "timeweighted":
		m.tw = &TimeWeighted{}
	case "histogram":
		m.hist = newHistogram(bounds)
	}
	r.metrics[key] = m
	return m
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(component, name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(component, name, "counter", labels, nil).counter
}

// TimeWeighted registers (or finds) a time-weighted gauge.
func (r *Registry) TimeWeighted(component, name string, labels ...string) *TimeWeighted {
	if r == nil {
		return nil
	}
	return r.register(component, name, "timeweighted", labels, nil).tw
}

// Histogram registers (or finds) a histogram with the given bucket bounds.
// A second registration of the same key keeps the original bounds.
func (r *Registry) Histogram(component, name string, bounds []int64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(component, name, "histogram", labels, bounds).hist
}

// Point is one metric's exported state, as serialized to the JSONL metrics
// dump (-metrics, in both CLIs). Counters fill Value;
// time-weighted gauges fill Value and Avg (over [0, until] as passed to
// Snapshot) plus the raw Integral/Last pair; histograms fill Buckets,
// Counts, Sum, and Count.
type Point struct {
	Run       string            `json:"run,omitempty"`
	Component string            `json:"component"`
	Name      string            `json:"name"`
	Labels    map[string]string `json:"labels,omitempty"`
	Type      string            `json:"type"`
	Value     int64             `json:"value,omitempty"`
	Avg       float64           `json:"avg,omitempty"`
	Integral  int64             `json:"integral,omitempty"`
	Last      int64             `json:"last,omitempty"`
	Buckets   []int64           `json:"buckets,omitempty"`
	Counts    []int64           `json:"counts,omitempty"`
	Sum       int64             `json:"sum,omitempty"`
	Count     int64             `json:"count,omitempty"`
}

// Snapshot exports every metric, sorted by component/name/labels for
// deterministic output. until is the run's end time, used to close out
// time-weighted averages (0 is fine when none are registered).
func (r *Registry) Snapshot(until int64) []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms := make([]*metric, len(keys))
	for i, k := range keys {
		ms[i] = r.metrics[k]
	}
	r.mu.Unlock()

	out := make([]Point, 0, len(ms))
	for _, m := range ms {
		p := Point{Component: m.component, Name: m.name, Labels: labelMap(m.labels), Type: m.kind}
		switch m.kind {
		case "counter":
			p.Value = m.counter.Value()
		case "timeweighted":
			p.Value = m.tw.Value()
			p.Avg = m.tw.Avg(until)
			p.Integral, p.Last = m.tw.raw()
		case "histogram":
			p.Buckets = m.hist.Bounds()
			p.Counts = m.hist.Counts()
			p.Sum = m.hist.Sum()
			p.Count = m.hist.Total()
		}
		out = append(out, p)
	}
	return out
}

// labelMap returns the "k=v" labels as a map (nil for none).
func labelMap(labels []string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	lm := make(map[string]string, len(labels))
	for _, l := range labels {
		k, v, _ := strings.Cut(l, "=")
		lm[k] = v
	}
	return lm
}

// WriteJSONL writes one JSON object per line for each point.
func WriteJSONL(w io.Writer, points []Point) error {
	enc := json.NewEncoder(w)
	for i := range points {
		if err := enc.Encode(&points[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteRun writes reg's snapshot at until, the run's end time, as JSONL,
// every point tagged with the run's label: one block of the -metrics dump
// that plane.Plane writes.
func WriteRun(w io.Writer, run string, reg *Registry, until int64) error {
	points := reg.Snapshot(until)
	for i := range points {
		points[i].Run = run
	}
	return WriteJSONL(w, points)
}

// Sum adds the values of every counter matching component/name across all
// label sets — e.g. total link traversals over the whole mesh.
func (r *Registry) Sum(component, name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var s int64
	for _, m := range r.metrics {
		if m.component == component && m.name == name && m.counter != nil {
			s += m.counter.Value()
		}
	}
	return s
}

// Observer is the handle the simulation substrates take: the registry they
// publish into.
type Observer struct {
	Reg *Registry
}

// New returns an observer with a fresh registry.
func New() *Observer { return &Observer{Reg: NewRegistry()} }

// OrNew returns o, or a fresh observer when o is nil — the pattern every
// substrate constructor uses so standalone use stays registry-backed.
func OrNew(o *Observer) *Observer {
	if o == nil {
		return New()
	}
	return o
}
