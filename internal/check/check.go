// Package check is the simulator-wide validation subsystem: cross-layer
// invariant probes that consume the simulator's probe stream (internal/probe)
// and the engine's dispatch hook at run time, plus closed-form analytical
// oracles and a metamorphic test battery that `make validate` sweeps over
// every bundled workload.
//
// The probes enforce the properties the paper's figures silently rely on:
//
//   - per-access timestamp causality — issue ≤ L1 ≤ L2 ≤ NoC ≤ DRAM, with
//     every stage of the Figure 2 flow monotone in time, and every started
//     access retired exactly once;
//   - request conservation generalized across cache/NoC/DRAM (the
//     VerifyTotals identities over probe.Totals, shared by tests, the CLI,
//     and the battery);
//   - XY-route validity — every transit's hop count equals the Manhattan
//     distance and never exceeds the mesh diameter (MeshX−1)+(MeshY−1) —
//     and a zero-load latency lower bound per message;
//   - address-map agreement — Translate/MCOf/LocalAddr must agree on which
//     controller owns every byte, with (MC, local) ↔ physical a bijection;
//   - the FR-FCFS starvation bound — no request is ever passed over more
//     than the configured cap in favor of younger row-buffer hits;
//   - engine clock monotonicity — dispatched event times never rewind.
//
// A Checker is bound to one run at a time (sim.Config.Check; sim.Run calls
// Bind, and the stream ends with Finish). Violations accumulate across
// Binds, so one Checker validates a sequence of runs — every window run of
// a sampled simulation. It is not safe for concurrent use — the simulator
// is single-goroutine, and concurrent sweeps attach one Checker per run.
package check

import (
	"fmt"

	"offchip/internal/dram"
	"offchip/internal/mem"
	"offchip/internal/noc"
	"offchip/internal/probe"
)

// Violation is one detected invariant breach.
type Violation struct {
	Probe string // which probe fired: "causality", "conservation", "xy-route", ...
	Msg   string
}

func (v Violation) String() string { return v.Probe + ": " + v.Msg }

// maxRecorded caps the violation log: a systemic breach (e.g. a broken hop
// bound) would otherwise record one entry per message. Past the cap only
// the count grows.
const maxRecorded = 64

// Params binds a Checker to one simulated machine. sim.Run fills this from
// its Config; standalone substrate tests fill only the fields they use.
type Params struct {
	MeshX, MeshY int
	NoC          noc.Config
	DRAM         dram.Config
	Mem          mem.Config
	// Optimal marks a Section 2 optimal-scheme run (controllers bypassed).
	Optimal bool
}

// stageRec tracks one in-flight access for the causality probe: the name
// and time of its latest stage.
type stageRec struct {
	stage string
	t     int64
}

// Checker collects invariant violations for the simulation runs bound to it.
type Checker struct {
	bound  bool
	p      Params
	diam   int
	starve int // effective FR-FCFS bypass cap

	violations []Violation
	total      int64 // including violations dropped past maxRecorded

	// Causality probe state.
	inflight  map[int64]stageRec
	started   int64
	completed int64

	// Engine probe state.
	lastTick int64

	// NoC probe state.
	nocMsgs int64

	// DRAM probe state.
	dramEnq    int64
	dramServed int64
	MaxBypass  int // worst bypass count observed at service time
}

// New returns an unbound Checker. Bind attaches it to a machine; sim.Run
// binds the Checker in its Config automatically.
func New() *Checker {
	return &Checker{inflight: map[int64]stageRec{}}
}

// Bind attaches the Checker to one machine configuration for the next run.
// Binding resets the per-run probe state but keeps the violations recorded
// so far, so a Checker bound to several runs reports all of them.
func (c *Checker) Bind(p Params) {
	c.bound = true
	c.p = p
	c.diam = p.MeshX + p.MeshY - 2
	c.starve = dram.EffectiveStarveLimit(p.DRAM)
	c.inflight = map[int64]stageRec{}
	c.started, c.completed = 0, 0
	c.lastTick = 0
	c.nocMsgs = 0
	c.dramEnq, c.dramServed = 0, 0
	c.MaxBypass = 0
}

// Report records a violation found by an external probe site (e.g. the
// sim's directory/L2 agreement check).
func (c *Checker) Report(probe, format string, args ...any) {
	c.total++
	if len(c.violations) >= maxRecorded {
		return
	}
	c.violations = append(c.violations, Violation{Probe: probe, Msg: fmt.Sprintf(format, args...)})
}

// Violations returns the recorded violations (capped at maxRecorded; Count
// has the true total).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Count returns the total number of violations detected, including any
// dropped past the recording cap.
func (c *Checker) Count() int64 {
	if c == nil {
		return 0
	}
	return c.total
}

// Ok reports whether every bound run passed every probe.
func (c *Checker) Ok() bool { return c.Count() == 0 }

// Err returns nil when the run is clean, or an error summarizing the first
// violations.
func (c *Checker) Err() error {
	if c == nil || c.total == 0 {
		return nil
	}
	first := c.violations[0]
	return fmt.Errorf("check: %d violation(s), first: %s", c.total, first)
}

// Finish runs the end-of-run checks: the generalized conservation
// identities over the run totals and the no-access-left-in-flight drain
// check.
func (c *Checker) Finish(tot probe.Totals) {
	if n := len(c.inflight); n != 0 {
		c.Report("causality", "%d accesses still in flight at drain (started %d, completed %d)",
			n, c.started, c.completed)
	}
	if c.started != c.completed {
		c.Report("causality", "started %d accesses but completed %d", c.started, c.completed)
	}
	if c.dramEnq != c.dramServed {
		c.Report("conservation", "controllers enqueued %d requests but served %d", c.dramEnq, c.dramServed)
	}
	// Stream counts must agree with the run totals (a standalone checker
	// that never saw NoC traffic skips this).
	if c.nocMsgs != 0 && c.nocMsgs != tot.NetMsgs[0]+tot.NetMsgs[1] {
		c.Report("conservation", "NoC probe saw %d messages, run totals say %d",
			c.nocMsgs, tot.NetMsgs[0]+tot.NetMsgs[1])
	}
	for _, v := range VerifyTotals(tot) {
		c.Report(v.Probe, "%s", v.Msg)
	}
}
