// Package probe defines the simulator's one observation stream. Every timed
// access reports its issue (Begin), each stage of its Figure 2 flow (Stage),
// and its retirement (End); committed page migrations (Migrate) and the
// drained run's totals (Finish) are reported once each. The invariant
// checker (internal/check) and the latency-attribution profiler
// (internal/prof) both consume it. sim.Run holds exactly one Probe value —
// nil, one consumer, or a fan-out built by Join — so a detached run costs
// one nil check per hook site.
//
// The package sits below sim, check and prof, so all three can import it
// without a cycle.
package probe

import (
	"offchip/internal/dram"
	"offchip/internal/mem"
	"offchip/internal/mesh"
)

// Kind labels a stage of the access flow. An access may report a kind more
// than once (the shared-L2 flow crosses the NoC twice on the way back), and
// the times of one access's stages never decrease.
type Kind uint8

const (
	L1         Kind = iota // L1 lookup finished
	L2                     // an L2 lookup finished: local, home bank, or the remote owner
	Req                    // a request-side NoC transit arrived
	Dir                    // the directory lookup at the controller finished
	Fwd                    // the directory's forward to the owning L2 arrived
	Resp                   // a response-side NoC transit arrived
	DRAMSubmit             // the request entered a controller queue
	DRAMDone               // the controller finished the request
	DRAMIdeal              // the optimal scheme's contention-free service finished
	Copy                   // a migration page-copy flit arrived; belongs to no access (ID 0)
)

var kindNames = [...]string{
	L1:         "L1",
	L2:         "L2",
	Req:        "noc-req",
	Dir:        "dir",
	Fwd:        "noc-fwd",
	Resp:       "noc-resp",
	DRAMSubmit: "dram-submit",
	DRAMDone:   "dram-done",
	DRAMIdeal:  "dram-ideal",
	Copy:       "noc-copy",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "stage?"
}

// Transit reports whether the kind is a NoC message (Req, Fwd, Resp, Copy).
func (k Kind) Transit() bool { return k == Req || k == Fwd || k == Resp || k == Copy }

// Stage is one stage report: Kind completed at time T. The remaining fields
// are set only for the kinds named beside them.
type Stage struct {
	Kind Kind
	T    int64

	// Transits: the message left From at Depart and crossed Hops links to To.
	Depart   int64
	From, To mesh.Node
	Hops     int

	// DRAMSubmit, DRAMDone: the controller.
	MC int
	// DRAMSubmit: the physical address and its controller-local address.
	// Fwd: the forwarded line.
	Addr, Local int64
	// DRAMDone: the request's bank service record.
	Service dram.Service
	// Fwd: the directory named an owner whose L2 does not hold the line.
	Stale bool
}

// Migration is one committed page migration.
type Migration struct {
	App      int
	VPage    int64 // the decision's base page
	Pages    int   // member pages re-homed by this commit
	From, To int   // controllers
	Copy     int64 // cycles from launch to the last copy flit landing
	Stall    int64 // TLB-shootdown cycles charged across the sharer cores
	// Space is the application's address space just after the commit.
	Space *mem.AddressSpace
}

// Totals summarizes a drained run for the generalized conservation check
// (check.VerifyTotals); sim.(*Result).Totals builds it.
type Totals struct {
	// TraceAccesses is the workload's access count (the injection target).
	TraceAccesses int64
	// Injected and Completed are the accesses the machine issued and retired.
	Injected  int64
	Completed int64

	// Outcome partition: every access is exactly one of these.
	L1Hits       int64
	L2LocalHits  int64
	OnChipRemote int64
	OffChip      int64

	// Network totals per class (on-chip, off-chip).
	NetMsgs [2]int64
	HopCDF  [2][]float64
	// MaxHops is the mesh diameter (MeshX−1)+(MeshY−1); each HopCDF must
	// have exactly one entry per reachable hop count, 0..MaxHops.
	MaxHops int

	// Controller totals.
	MemSubmitted int64
	MemServed    int64

	// Events is the engine's processed-event count.
	Events int64

	// Optimal marks a Section 2 optimal-scheme run, where the controllers
	// are bypassed (MemServed is the synthetic row-hit count).
	Optimal bool
}

// Probe consumes the stream. IDs are assigned by the simulator, one per
// access, starting at 1; ID 0 marks a stage that belongs to no access.
type Probe interface {
	Begin(id int64, core int, t int64)
	Stage(id int64, s Stage)
	End(id int64, t int64)
	Migrate(m Migration)
	Finish(tot Totals)
}

// Join returns one Probe for the given consumers: nil for none, the consumer
// itself for one, and a fan-out in argument order otherwise.
func Join(ps ...Probe) Probe {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return fanout(ps)
}

type fanout []Probe

func (f fanout) Begin(id int64, core int, t int64) {
	for _, p := range f {
		p.Begin(id, core, t)
	}
}

func (f fanout) Stage(id int64, s Stage) {
	for _, p := range f {
		p.Stage(id, s)
	}
}

func (f fanout) End(id int64, t int64) {
	for _, p := range f {
		p.End(id, t)
	}
}

func (f fanout) Migrate(m Migration) {
	for _, p := range f {
		p.Migrate(m)
	}
}

func (f fanout) Finish(tot Totals) {
	for _, p := range f {
		p.Finish(tot)
	}
}
