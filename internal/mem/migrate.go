// Online page migration: the dynamic rival to the paper's static,
// compiler-directed layout. The competitor family follows the thesis repo's
// Ramulator2 policies (FCFSTranslation / DynamicTranslation3): map a page to
// the controller nearest its *first* accessor, then keep per-page access
// distributions over fixed cycle windows and migrate a page whose dominant
// accessor crosses a hot threshold to that accessor's nearest controller.
// This file holds the pure decision machinery — the spec with its canonical
// string form (embedded in job IDs), the window/counter/cooldown engine, and
// the page-table remap — while internal/sim injects the modeled migration
// cost (page-copy flits through the NoC, TLB-shootdown stalls on the
// sharers).
package mem

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MigrationSpec configures the hot-page migration engine. The zero value is
// not valid; use DefaultMigrationSpec or ParseMigrationSpec.
type MigrationSpec struct {
	// HotThreshold is the number of touches by a page's dominant accessor
	// within one window that triggers a migration toward that accessor's
	// nearest controller. An effectively infinite threshold (or zero
	// WindowCycles) makes the engine provably inert.
	HotThreshold int
	// WindowCycles is the access-distribution window length in simulated
	// cycles. Zero disables window rollover entirely: counters accumulate
	// but no migration can ever trigger.
	WindowCycles int64
	// CooldownWindows freezes a migrated page for this many subsequent
	// windows, preventing ping-pong between two alternating accessors.
	CooldownWindows int
	// CopyFlits is the number of line-sized messages a page copy injects
	// through the NoC from the old controller's node to the new one's.
	// Zero derives PageBytes/LineBytes from the machine.
	CopyFlits int
	// ShootdownCycles is the TLB-shootdown stall charged to every core that
	// touched the page in the triggering window, applied when the remap
	// commits.
	ShootdownCycles int64
	// ClusterPages migrates aligned groups of this many virtual pages as one
	// unit: touches aggregate per cluster, a triggering cluster moves every
	// allocated member page, and the sharers pay ONE shootdown per cluster
	// remap instead of one per page — the amortization that makes coarse
	// migration cheaper than per-page. 0 and 1 both mean single-page
	// migration (the historical behavior; old 5-field specs parse as g1).
	ClusterPages int
}

// DefaultMigrationSpec returns the migration configuration "on" selects:
// h16w4096c2f0t64g4, the winner of the figtune sweep over (threshold,
// window, cooldown, granularity) × the full-trace suite plus the
// phase-changing mixes. The old default (h16w1024c2, single-page) was a net
// loss on stationary workloads — 1025 remaps and −63% on apsi — because a
// 1024-cycle window rewards every transient; 4096-cycle windows with
// 4-page clusters amortize one shootdown over a whole cluster and leave
// the worst full-trace regression (apsi, −0.6%) inside the simulator's
// ±1% seed-jitter noise floor while still winning on phase-changing mixes.
func DefaultMigrationSpec() MigrationSpec {
	return MigrationSpec{
		HotThreshold:    16,
		WindowCycles:    4096,
		CooldownWindows: 2,
		CopyFlits:       0,
		ShootdownCycles: 64,
		ClusterPages:    4,
	}
}

// Validate rejects non-runnable specs.
func (s MigrationSpec) Validate() error {
	if s.HotThreshold <= 0 {
		return fmt.Errorf("mem: migration hot threshold %d, want >= 1", s.HotThreshold)
	}
	if s.WindowCycles < 0 {
		return fmt.Errorf("mem: migration window %d cycles, want >= 0", s.WindowCycles)
	}
	if s.CooldownWindows < 0 {
		return fmt.Errorf("mem: migration cooldown %d windows, want >= 0", s.CooldownWindows)
	}
	if s.CopyFlits < 0 {
		return fmt.Errorf("mem: migration copy flits %d, want >= 0", s.CopyFlits)
	}
	if s.ShootdownCycles < 0 {
		return fmt.Errorf("mem: migration shootdown %d cycles, want >= 0", s.ShootdownCycles)
	}
	if s.ClusterPages < 0 {
		return fmt.Errorf("mem: migration cluster %d pages, want >= 0", s.ClusterPages)
	}
	return nil
}

// String renders the canonical compact form
// h<thr>w<win>c<cool>f<flits>t<stall>[g<pages>]. The g field appears only
// when ClusterPages > 1, so every historical 5-field spec — and every job ID
// embedding one — renders byte-identically. It round-trips through
// ParseMigrationSpec.
func (s MigrationSpec) String() string {
	out := fmt.Sprintf("h%dw%dc%df%dt%d",
		s.HotThreshold, s.WindowCycles, s.CooldownWindows, s.CopyFlits, s.ShootdownCycles)
	if s.ClusterPages > 1 {
		out += fmt.Sprintf("g%d", s.ClusterPages)
	}
	return out
}

// ParseMigrationSpec parses the compact form. "" and "off" mean migration
// disabled (nil); "on" means the defaults. Only the canonical rendering is
// accepted: a spec whose numerals re-render differently ("h+16…", "h016…",
// an explicit "g1") is rejected, because job IDs embed the string verbatim
// and -replay handles, recorded job lists and bench pins match them by ID
// bytes — two spellings of one spec would be two jobs.
func ParseMigrationSpec(s string) (*MigrationSpec, error) {
	switch s {
	case "", "off":
		return nil, nil
	case "on":
		sp := DefaultMigrationSpec()
		return &sp, nil
	}
	rest, ok := strings.CutPrefix(s, "h")
	if !ok {
		return nil, fmt.Errorf("mem: migration spec %q: want \"on\", \"off\", or h<thr>w<win>c<cool>f<flits>t<stall>[g<pages>]", s)
	}
	hs, rest, ok := strings.Cut(rest, "w")
	if !ok {
		return nil, fmt.Errorf("mem: migration spec %q lacks the w<window> field", s)
	}
	ws, rest, ok := strings.Cut(rest, "c")
	if !ok {
		return nil, fmt.Errorf("mem: migration spec %q lacks the c<cooldown> field", s)
	}
	cs, rest, ok := strings.Cut(rest, "f")
	if !ok {
		return nil, fmt.Errorf("mem: migration spec %q lacks the f<flits> field", s)
	}
	fs, rest, ok := strings.Cut(rest, "t")
	if !ok {
		return nil, fmt.Errorf("mem: migration spec %q lacks the t<shootdown> field", s)
	}
	ts, gs, hasG := strings.Cut(rest, "g")
	var sp MigrationSpec
	var err error
	if sp.HotThreshold, err = strconv.Atoi(hs); err != nil {
		return nil, fmt.Errorf("mem: migration threshold %q: %w", hs, err)
	}
	if sp.WindowCycles, err = strconv.ParseInt(ws, 10, 64); err != nil {
		return nil, fmt.Errorf("mem: migration window %q: %w", ws, err)
	}
	if sp.CooldownWindows, err = strconv.Atoi(cs); err != nil {
		return nil, fmt.Errorf("mem: migration cooldown %q: %w", cs, err)
	}
	if sp.CopyFlits, err = strconv.Atoi(fs); err != nil {
		return nil, fmt.Errorf("mem: migration flits %q: %w", fs, err)
	}
	if sp.ShootdownCycles, err = strconv.ParseInt(ts, 10, 64); err != nil {
		return nil, fmt.Errorf("mem: migration shootdown %q: %w", ts, err)
	}
	if hasG {
		if sp.ClusterPages, err = strconv.Atoi(gs); err != nil {
			return nil, fmt.Errorf("mem: migration cluster %q: %w", gs, err)
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if canon := sp.String(); canon != s {
		return nil, fmt.Errorf("mem: migration spec %q is not canonical (want %q): job IDs embed the spec verbatim, so only one spelling is accepted", s, canon)
	}
	return &sp, nil
}

// PageID names one virtual page of one application's address space.
type PageID struct {
	App   int
	VPage int64
}

// Migration is one remap decision the engine produced at a window boundary.
// With cluster-granularity migration (ClusterPages > 1) the decision covers
// the whole aligned cluster: Page is the cluster's base page and Pages its
// extent; counts and sharers aggregate over every member page.
type Migration struct {
	Page     PageID // single page, or the cluster's aligned base page
	Pages    int    // cluster extent in pages (1: single-page migration)
	From, To int    // controllers (From is the base page's current home)
	Dominant int    // the core whose touches triggered the migration
	Count    int32  // the dominant core's touches in the window
	Sharers  []int  // every core that touched the page/cluster in the window, ascending
}

// pageStat is one page's live migration state. Counters are reset lazily on
// the first touch of a new window, so idle pages cost nothing per window.
// The zero value is a page the engine has never seen.
type pageStat struct {
	counts []int32 // per-core touches within window `window` (nil: never touched)
	hist   []int32 // exponentially-decayed per-core history (nil until
	// the page survives its first window rollover; decays by 1/4 per window)
	window        int64 // window index the counters belong to
	cooldownUntil int64 // first window index whose close may migrate again
	pending       bool  // a migration is in flight; frozen until Completed
	candTo        int   // unconfirmed candidate target (-1: none)
	candWindow    int64 // window index the candidate was recorded at
}

// fold rolls the page's window counters into the decayed history: the closed
// window's counts join the running total, which then loses a quarter per
// elapsed window. The fixed point of h = (h+c)·3/4 is 3c, so at evaluation
// time a stable pattern weighs its history 3:1 against the open window —
// the long-horizon estimate the profitability guard works from.
func (st *pageStat) fold(elapsed int64) {
	if st.hist == nil {
		st.hist = make([]int32, len(st.counts))
	}
	for i, c := range st.counts {
		h := st.hist[i] + c
		for k := int64(0); k < elapsed && h > 0; k++ {
			h -= (h + 3) >> 2
		}
		st.hist[i] = h
		st.counts[i] = 0
	}
}

// Migrator is the window/counter/cooldown decision engine. It is pure
// bookkeeping — no clocks, no cost model — so the edge cases (threshold
// exactly met, dominant-accessor ties, cooldown expiry, ping-pong damping)
// are table-testable in isolation. internal/sim drives it: Touch on every
// reference, Roll at each window boundary, Completed when a remap commits.
type Migrator struct {
	spec    MigrationSpec
	cores   int
	cluster int64 // migration granularity in pages (>= 1)
	// clusterShift replaces the division by cluster when it is a power of
	// two; -1 otherwise.
	clusterShift int
	// NearestMC maps a core to its nearest controller (by mesh hops) — the
	// migration target of a page that core dominates.
	nearestMC func(core int) int
	// dist is the mesh hop distance from a core's node to a controller's
	// node — the profitability model: a migration must strictly reduce the
	// touch-weighted total distance of the window it triggered in.
	dist func(core, mc int) int

	window int64 // index of the currently open window
	// units[app][u] is decision unit u of application app: the virtual page
	// u at single-page granularity, the cluster of pages [u·cluster,
	// (u+1)·cluster) otherwise. Each application's slice doubles to reach
	// the highest unit touched; page IDs must be non-negative.
	units [][]pageStat
	order []PageID // first-touch order within the open window (determinism)
	load  []int64  // Roll's per-controller traffic of the closing window
}

// NewMigrator builds the decision engine for a machine with the given core
// count. nearestMC maps a core to its nearest controller; dist is the mesh
// hop distance from a core's node to a controller's node.
func NewMigrator(spec MigrationSpec, cores int, nearestMC func(core int) int, dist func(core, mc int) int) *Migrator {
	cluster := int64(spec.ClusterPages)
	if cluster < 1 {
		cluster = 1
	}
	g := &Migrator{
		spec:         spec,
		cores:        cores,
		cluster:      cluster,
		clusterShift: -1,
		nearestMC:    nearestMC,
		dist:         dist,
	}
	if cluster&(cluster-1) == 0 {
		g.clusterShift = bits.TrailingZeros64(uint64(cluster))
	}
	return g
}

// Spec returns the engine's configuration.
func (g *Migrator) Spec() MigrationSpec { return g.spec }

// ClusterPages returns the effective migration granularity (>= 1).
func (g *Migrator) ClusterPages() int { return int(g.cluster) }

// key maps a page to its decision unit: itself at single-page granularity,
// the aligned cluster base otherwise.
func (g *Migrator) key(page PageID) PageID {
	if g.clusterShift >= 0 {
		page.VPage &^= g.cluster - 1
	} else {
		page.VPage -= page.VPage % g.cluster
	}
	return page
}

// unitOf returns the index of the page's decision unit.
func (g *Migrator) unitOf(vpage int64) int64 {
	if g.clusterShift >= 0 {
		return vpage >> g.clusterShift
	}
	return vpage / g.cluster
}

// stat returns the page's decision-unit state, or nil when the engine has
// never seen the unit.
func (g *Migrator) stat(page PageID) *pageStat {
	if uint(page.App) >= uint(len(g.units)) {
		return nil
	}
	tab := g.units[page.App]
	if u := g.unitOf(page.VPage); uint64(u) < uint64(len(tab)) && tab[u].counts != nil {
		return &tab[u]
	}
	return nil
}

// slot returns the page's decision-unit state, growing the tables to reach
// it. The pointer is valid until the next call.
func (g *Migrator) slot(page PageID) *pageStat {
	u := g.unitOf(page.VPage)
	if uint(page.App) < uint(len(g.units)) && uint64(u) < uint64(len(g.units[page.App])) {
		return &g.units[page.App][u]
	}
	if page.App < 0 || u < 0 {
		panic(fmt.Sprintf("mem: migrator touched negative page %+v", page))
	}
	for page.App >= len(g.units) {
		g.units = append(g.units, nil)
	}
	tab := g.units[page.App]
	tab = append(tab, make([]pageStat, grownLen(len(tab), u)-len(tab))...)
	g.units[page.App] = tab
	return &tab[u]
}

// Touch counts one reference to the page by the core within the open window.
// At cluster granularity the touch lands on the page's cluster.
func (g *Migrator) Touch(page PageID, core int) {
	st := g.slot(page)
	if st.counts == nil {
		st.counts = make([]int32, g.cores)
		st.candTo = -1
		st.window = g.window
		g.order = append(g.order, g.key(page))
		st.counts[core]++
		return
	}
	if st.window != g.window {
		st.fold(g.window - st.window)
		st.window = g.window
		g.order = append(g.order, g.key(page))
	}
	st.counts[core]++
}

// addLoad adds d to controller mc's traffic in Roll's load table, growing
// the table to reach mc.
func (g *Migrator) addLoad(mc int, d int64) {
	if mc >= len(g.load) {
		g.load = append(g.load, make([]int64, mc+1-len(g.load))...)
	}
	g.load[mc] += d
}

// loadOf returns controller mc's traffic in Roll's load table.
func (g *Migrator) loadOf(mc int) int64 {
	if mc < len(g.load) {
		return g.load[mc]
	}
	return 0
}

// Roll closes the open window and returns the migrations it triggers, in
// first-touch order. curMC resolves a page's current home controller (from
// the live page table). A page migrates when its dominant accessor — ties
// broken toward the lowest core ID — reached HotThreshold touches, its
// nearest controller differs from the page's current home, the page is not
// cooling down, and no earlier migration of it is still in flight.
func (g *Migrator) Roll(curMC func(PageID) int) []Migration {
	closed := g.window
	g.window++
	// Per-controller traffic of the closing window (touches of every tracked
	// page, attributed to its current home), the balance picture behind the
	// queue guard below. Updated as migrations are approved so a burst of
	// same-window candidates cannot collectively overload one target.
	clear(g.load)
	for _, pg := range g.order {
		if st := g.stat(pg); st != nil && st.window == closed {
			var tot int64
			for _, c := range st.counts {
				tot += int64(c)
			}
			g.addLoad(curMC(pg), tot)
		}
	}
	var out []Migration
	for _, pg := range g.order {
		st := g.stat(pg)
		if st == nil || st.window != closed {
			continue
		}
		if st.pending || closed < st.cooldownUntil {
			continue
		}
		dom, cnt := -1, int32(0)
		for core, c := range st.counts {
			if c > cnt { // strict: ties keep the lowest core ID
				dom, cnt = core, c
			}
		}
		if dom < 0 || int(cnt) < g.spec.HotThreshold {
			continue
		}
		to := g.nearestMC(dom)
		from := curMC(pg)
		if to == from {
			continue
		}
		// Profitability guard: the dominant accessor gains from the move, but
		// every other sharer may be dragged farther from the page, and the
		// payoff accrues over the REST of the run, not the window that
		// triggered. Weigh history and window together (the decayed history
		// outweighs the open window 3:1 for a stable pattern) — the move must
		// cut the touch-weighted hop distance by at least two hops per
		// weighted touch, or the exec-time tail risk of shifting DRAM service
		// between controllers outweighs the NoC savings (exec time is a MAX
		// over cores: a globally profitable move can still slow the critical
		// one). Migrating on one window's dominance
		// alone is the over-migration pathology the old engine exhibited
		// (hundreds of net-loss remaps on stationary workloads, −63% on
		// apsi): a rotating pattern justifies in every window a move the
		// next window regrets, while the long-horizon estimate sees the
		// rotation cancel out.
		var benefit, effTotal, total int64
		for core, c := range st.counts {
			eff := int64(c)
			if st.hist != nil {
				eff += int64(st.hist[core])
			}
			if eff == 0 {
				continue
			}
			total += int64(c)
			effTotal += eff
			benefit += eff * int64(g.dist(core, from)-g.dist(core, to))
		}
		if benefit < 2*effTotal {
			continue
		}
		// Queue-balance guard: proximity is only half the objective — the
		// paper's thesis is that concentrating hot pages on one controller
		// trades network hops for queueing delay. Refuse a move that would
		// leave the target carrying more of this window's tracked traffic
		// than the page's current home carried before the move; migrations
		// then flow toward colder controllers (a phase shift drains the old
		// home) but never re-concentrate a spread that first-touch already
		// balanced.
		if g.loadOf(to)+total > g.loadOf(from) {
			continue
		}
		// Confirmation: a single window's snapshot is myopic — rotating
		// access patterns (a pipeline wavefront crossing the mesh) produce
		// windows that each justify a move the next window invalidates, and
		// chasing them remaps hot pages all run long for nothing. A genuine
		// hot-set shift persists, so a migration commits only when the same
		// page→target decision passes every guard in two consecutive windows.
		if st.candTo != to || st.candWindow != closed-1 {
			st.candTo, st.candWindow = to, closed
			continue
		}
		st.candTo = -1
		var sharers []int
		for core, c := range st.counts {
			if c > 0 {
				sharers = append(sharers, core)
			}
		}
		g.addLoad(from, -total)
		g.addLoad(to, total)
		st.pending = true
		st.cooldownUntil = closed + 1 + int64(g.spec.CooldownWindows)
		out = append(out, Migration{
			Page: pg, Pages: int(g.cluster), From: from, To: to,
			Dominant: dom, Count: cnt, Sharers: sharers,
		})
	}
	g.order = g.order[:0]
	return out
}

// Completed marks the page's (or its cluster's) in-flight migration as
// committed, unfreezing it for future windows (the cooldown stamped at
// trigger time still holds).
func (g *Migrator) Completed(page PageID) {
	if st := g.stat(page); st != nil {
		st.pending = false
	}
}

// FirstTouchNearestPolicy allocates a page from the controller *nearest*
// the first-touching core's mesh node — the FCFSTranslation competitor —
// rather than the first toucher's cluster controller (FirstTouchPolicy).
type FirstTouchNearestPolicy struct {
	// NearestMC maps a core to its nearest controller by mesh hops.
	NearestMC func(core int) int
}

// TargetMC implements Policy.
func (p *FirstTouchNearestPolicy) TargetMC(vpage int64, core, desired int) int {
	return p.NearestMC(core)
}
