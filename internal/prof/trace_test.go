package prof_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"offchip/internal/core"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/prof"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

// traceCase is one comparison whose optimized run is traced.
type traceCase struct {
	name    string
	cap     int
	migrate string // mem.ParseMigrationSpec input
	sample  string // sim.ParseSampleSpec input
	every   int64
}

// traceCases: a migrating page-interleaved comparison, and a sampled one,
// whose trace covers the representative window (sampled runs cannot
// migrate).
var traceCases = []traceCase{
	{name: "migrating", cap: 300, migrate: "on", sample: "off", every: 7},
	{name: "sampled", cap: 2000, migrate: "off", sample: "on", every: 5},
}

// compare runs apsi page-interleaved under tc. With traced set, the
// optimized run carries a profiler that writes its Chrome trace into the
// returned buffer.
func compare(t *testing.T, tc traceCase, traced bool) (*core.Comparison, []byte) {
	t.Helper()
	m := layout.Default8x8()
	m.Interleave = layout.PageInterleave
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{MaxAccessesPerThread: tc.cap}
	if opt.Migrate, err = mem.ParseMigrationSpec(tc.migrate); err != nil {
		t.Fatal(err)
	}
	if opt.Sample, err = sim.ParseSampleSpec(tc.sample); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var pf *prof.Profiler
	if traced {
		pf = prof.New()
		pf.TraceTo(&buf, tc.every)
		opt.Attach = func(run string, cfg *sim.Config) {
			if run == "optimized" {
				cfg.Prof = pf
			}
		}
	}
	app, _ := workloads.ByName("apsi")
	c, err := core.Compare(app, m, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		if err := pf.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return c, buf.Bytes()
}

// TestTracingDoesNotPerturb: tracing is read-only — the traced comparison's
// three runs report exactly the metrics of an untraced one.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, tc := range traceCases {
		t.Run(tc.name, func(t *testing.T) {
			plain, _ := compare(t, tc, false)
			traced, out := compare(t, tc, true)
			if len(out) == 0 {
				t.Fatal("no trace written")
			}
			for _, run := range []struct {
				name      string
				got, want core.Metrics
			}{
				{"baseline", traced.Baseline, plain.Baseline},
				{"optimized", traced.Optimized, plain.Optimized},
				{"optimal", traced.Optimal, plain.Optimal},
			} {
				if !reflect.DeepEqual(run.got, run.want) {
					t.Errorf("%s: tracing changed the metrics:\n got %+v\nwant %+v", run.name, run.got, run.want)
				}
			}
		})
	}
}

// traceEvent is one Chrome trace_event as the profiler writes it.
type traceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	ID   int64            `json:"id"`
	TS   int64            `json:"ts"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// TestTraceEventsWellFormed checks the trace of the optimized run: it parses
// as a JSON array; every traced access is one "access" slice whose nested
// component slices tile it exactly, so they sum to its end-to-end latency;
// transit and DRAM slices carry their args; and -trace-sample N keeps the
// accesses whose probe ID is a multiple of N, ⌊accesses/N⌋ of them.
func TestTraceEventsWellFormed(t *testing.T) {
	for _, tc := range traceCases {
		t.Run(tc.name, func(t *testing.T) {
			c, out := compare(t, tc, true)
			var evs []traceEvent
			if err := json.Unmarshal(out, &evs); err != nil {
				t.Fatalf("trace is not a JSON array: %v", err)
			}
			type span struct {
				core           int
				begin, end     int64
				open           *traceEvent
				sum, lastClose int64
			}
			spans := map[int64]*span{}
			stages := map[string]bool{}
			for i := range evs {
				ev := &evs[i]
				if ev.Cat != "access" || ev.Pid != ev.Tid {
					t.Fatalf("event %d: %+v", i, *ev)
				}
				sp := spans[ev.ID]
				if ev.Name == "access" {
					switch {
					case ev.Ph == "b" && sp == nil:
						spans[ev.ID] = &span{core: ev.Pid, begin: ev.TS, end: -1, lastClose: ev.TS}
					case ev.Ph == "e" && sp != nil && sp.open == nil && sp.end < 0:
						sp.end = ev.TS
					default:
						t.Fatalf("event %d: unbalanced access slice %+v", i, *ev)
					}
					continue
				}
				if sp == nil || sp.end >= 0 || ev.Pid != sp.core {
					t.Fatalf("event %d: component slice outside its access: %+v", i, *ev)
				}
				switch ev.Ph {
				case "b":
					if sp.open != nil || ev.TS != sp.lastClose {
						t.Fatalf("event %d: slice %+v does not start where the last one ended (%d)", i, *ev, sp.lastClose)
					}
					stage, _, _ := strings.Cut(ev.Name, ";")
					stages[stage] = true
					_, hops := ev.Args["hops"]
					_, mc := ev.Args["mc"]
					_, bank := ev.Args["bank"]
					if strings.HasPrefix(stage, "noc-") && !hops {
						t.Errorf("event %d: transit slice without hops: %+v", i, *ev)
					}
					if stage == "dram" && !(mc && bank) {
						t.Errorf("event %d: DRAM slice without mc and bank: %+v", i, *ev)
					}
					sp.open = ev
				case "e":
					if sp.open == nil || sp.open.Name != ev.Name || ev.TS <= sp.open.TS {
						t.Fatalf("event %d: slice end %+v does not close %+v", i, *ev, sp.open)
					}
					sp.sum += ev.TS - sp.open.TS
					sp.lastClose, sp.open = ev.TS, nil
				}
			}
			for id, sp := range spans {
				if id%tc.every != 0 {
					t.Errorf("access %d traced, but -trace-sample is %d", id, tc.every)
				}
				if sp.end < 0 {
					t.Fatalf("access %d never ended", id)
				}
				if sp.sum != sp.end-sp.begin {
					t.Errorf("access %d: slices sum to %d cycles, end-to-end %d", id, sp.sum, sp.end-sp.begin)
				}
			}
			for _, s := range []string{"l1", "l2", "noc-req", "dram", "noc-resp"} {
				if !stages[s] {
					t.Errorf("no %s slices in the trace (have %v)", s, stages)
				}
			}
			p := c.Profiles["optimized"]
			if sr := c.Sampled["optimized"]; sr != nil {
				if want := sr.SpanWorkloads[0].TotalAccesses(); p.Accesses != want {
					t.Errorf("traced %d accesses, want the representative window's %d", p.Accesses, want)
				}
			}
			if want := p.Accesses / tc.every; int64(len(spans)) < want-1 || int64(len(spans)) > want+1 {
				t.Errorf("%d accesses traced, want ⌊%d/%d⌋ = %d", len(spans), p.Accesses, tc.every, want)
			}
		})
	}
}
