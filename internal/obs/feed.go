package obs

// Feed fills registry metrics from statistics a simulation keeps in plain
// int64 fields, so every statistic has one source: the field. The hot path
// updates only its own fields; Publish, called on the simulation goroutine
// (at the engine's progress tick and at run end), adds what changed since
// the previous call. Scrapers therefore see atomically updated handles
// without the hot path paying for atomics, and several runs may feed one
// registry. A Feed over a nil registry registers and publishes nothing.
type Feed struct {
	reg      *Registry
	counters []counterFeed
	hists    []histFeed
	gauges   []gaugeFeed
}

type counterFeed struct {
	dst  *Counter
	src  *int64
	last int64
}

type histFeed struct {
	dst            *Histogram
	counts         []int64 // len(bounds)+1, overflow last
	sum, total     *int64
	last           []int64
	lastSum, lastN int64
}

type gaugeFeed struct {
	dst                  *TimeWeighted
	integral, last, cur  *int64
	pubInt, pubLast, pub int64
}

// NewFeed returns a feed registering into reg (nil: an inert feed).
func NewFeed(reg *Registry) *Feed { return &Feed{reg: reg} }

// Counter registers a counter fed from *src.
func (f *Feed) Counter(src *int64, component, name string, labels ...string) {
	if f.reg == nil {
		return
	}
	f.counters = append(f.counters, counterFeed{dst: f.reg.Counter(component, name, labels...), src: src})
}

// Histogram registers a histogram fed from per-bucket counts (one per bound
// plus the overflow bucket) and the running sum and total of the observed
// values.
func (f *Feed) Histogram(counts []int64, sum, total *int64, component, name string, bounds []int64, labels ...string) {
	if f.reg == nil {
		return
	}
	if len(counts) != len(bounds)+1 {
		panic("obs: fed histogram needs one count per bound plus overflow")
	}
	f.hists = append(f.hists, histFeed{
		dst:    f.reg.Histogram(component, name, bounds, labels...),
		counts: counts, sum: sum, total: total,
		last: make([]int64, len(counts)),
	})
}

// TimeWeighted registers a time-weighted gauge fed from a level the writer
// integrates itself: *integral is Σ level·dt up to *last, the time of the
// latest change, and *cur is the level since then.
func (f *Feed) TimeWeighted(integral, last, cur *int64, component, name string, labels ...string) {
	if f.reg == nil {
		return
	}
	f.gauges = append(f.gauges, gaugeFeed{
		dst:      f.reg.TimeWeighted(component, name, labels...),
		integral: integral, last: last, cur: cur,
	})
}

// Publish adds every change since the previous Publish into the registry.
// It must run on the goroutine that owns the fed fields.
func (f *Feed) Publish() {
	for i := range f.counters {
		c := &f.counters[i]
		if v := *c.src; v != c.last {
			c.dst.Add(v - c.last)
			c.last = v
		}
	}
	for i := range f.hists {
		h := &f.hists[i]
		if *h.total == h.lastN {
			continue
		}
		for b, v := range h.counts {
			if d := v - h.last[b]; d != 0 {
				h.dst.counts[b].Add(d)
				h.last[b] = v
			}
		}
		h.dst.sum.Add(*h.sum - h.lastSum)
		h.dst.total.Add(*h.total - h.lastN)
		h.lastSum, h.lastN = *h.sum, *h.total
	}
	for i := range f.gauges {
		g := &f.gauges[i]
		in, last, cur := *g.integral, *g.last, *g.cur
		if in == g.pubInt && last == g.pubLast && cur == g.pub {
			continue
		}
		g.dst.mu.Lock()
		g.dst.integral += in - g.pubInt
		g.dst.last = last
		g.dst.cur = cur
		g.dst.mu.Unlock()
		g.pubInt, g.pubLast, g.pub = in, last, cur
	}
}
