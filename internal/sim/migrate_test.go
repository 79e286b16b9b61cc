package sim_test

// Migration battery: the online page-migration engine must be provably
// inert when degenerate (byte-identical results to the static policies, so
// the historical figures cannot drift), and fully conserved when active
// (remaps commit atomically while accesses are in flight; every copy flit
// and shootdown stall is accounted). `make validate` runs this file under
// -race -count=2 along with the conservation battery.

import (
	"reflect"
	"testing"

	"offchip/internal/check"
	"offchip/internal/core"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/mem"
	"offchip/internal/obs"
	"offchip/internal/sim"
	"offchip/internal/trace"
	"offchip/internal/workloads"
)

// pageMachine returns the Table 1 platform under page interleaving (the
// only interleaving migration is defined for) with the given L2.
func pageMachine(t *testing.T, l2 layout.CacheKind) (layout.Machine, *layout.ClusterMapping) {
	t.Helper()
	m := layout.Default8x8()
	m.L2 = l2
	m.Interleave = layout.PageInterleave
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	return m, cm
}

// baselineWorkload builds the app's identity-layout trace directly, without
// the layout optimizer — the compiler pass refuses shared L2 under page
// interleaving (a compiler constraint, Figure 22), but migration runs under
// the OS-default layout where no pass is involved.
func baselineWorkload(t *testing.T, app *workloads.App, m layout.Machine, cap int) *sim.Workload {
	t.Helper()
	p, store, err := app.Load()
	if err != nil {
		t.Fatal(err)
	}
	identity := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
	w, err := trace.Generate(p, identity, m, store, trace.Options{MaxAccessesPerThread: cap})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// aggressiveSpec migrates eagerly so short test traces still trigger
// remaps: low threshold, short windows, minimal damping.
func aggressiveSpec() *mem.MigrationSpec {
	return &mem.MigrationSpec{HotThreshold: 2, WindowCycles: 256, CooldownWindows: 1, CopyFlits: 4, ShootdownCycles: 16}
}

// TestMigrationDegenerateEquivalence is the differential gate behind the
// "provably inert" contract: a migration engine that can never fire — an
// unreachable threshold, or zero-length windows — must leave every workload's
// result byte-identical to a run with no engine attached, under both L2
// organizations and both static baseline policies. Any divergence (an extra
// event, a perturbed counter, a registry entry) means the disabled path costs
// something, and the historical goldens are no longer trustworthy.
func TestMigrationDegenerateEquivalence(t *testing.T) {
	degenerate := map[string]*mem.MigrationSpec{
		"infinite-threshold": {HotThreshold: 1 << 30, WindowCycles: 1024, CooldownWindows: 2, ShootdownCycles: 64},
		"zero-windows":       {HotThreshold: 2, WindowCycles: 0, CooldownWindows: 2, ShootdownCycles: 64},
	}
	for _, app := range workloads.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, l2 := range []layout.CacheKind{layout.PrivateL2, layout.SharedL2} {
				m, cm := pageMachine(t, l2)
				opt := core.Options{MaxAccessesPerThread: 120}
				base := baselineWorkload(t, app, m, 120)
				for _, pol := range []sim.PolicyKind{sim.PolicyInterleaved, sim.PolicyFirstTouchNearest} {
					cfg := core.SimConfig(m, cm, opt)
					cfg.Policy = pol
					ref, err := sim.Run(cfg, base)
					if err != nil {
						t.Fatal(err)
					}
					for name, spec := range degenerate {
						mcfg := cfg
						mcfg.Migrate = spec
						got, err := sim.Run(mcfg, base)
						if err != nil {
							t.Fatalf("%v/policy%d/%s: %v", l2, pol, name, err)
						}
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%v/policy%d/%s: degenerate migration perturbed the result", l2, pol, name)
						}
					}
				}
			}
		})
	}
}

// TestMigrationDegenerateRegistryIdentical extends the differential gate to
// the observability plane: with a degenerate engine attached, the metrics
// registry must carry exactly the same points (no mig/* counters, identical
// values elsewhere).
func TestMigrationDegenerateRegistryIdentical(t *testing.T) {
	app, ok := workloads.ByName("apsi")
	if !ok {
		t.Fatal("apsi workload missing")
	}
	m, cm := pageMachine(t, layout.PrivateL2)
	opt := core.Options{MaxAccessesPerThread: 120}
	base, _, _, err := core.Workloads(app, m, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(spec *mem.MigrationSpec) ([]obs.Point, *sim.Result) {
		cfg := core.SimConfig(m, cm, opt)
		cfg.Migrate = spec
		o := obs.New()
		cfg.Obs = o
		r, err := sim.Run(cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		return o.Reg.Snapshot(r.ExecTime), r
	}
	refPts, refR := snap(nil)
	gotPts, gotR := snap(&mem.MigrationSpec{HotThreshold: 1 << 30, WindowCycles: 1024, ShootdownCycles: 64})
	if !reflect.DeepEqual(gotR, refR) {
		t.Error("degenerate migration perturbed the result")
	}
	if !reflect.DeepEqual(gotPts, refPts) {
		t.Errorf("degenerate migration perturbed the registry: %d points vs %d", len(gotPts), len(refPts))
	}
}

// TestMigrationConservation runs the engine hot — low threshold, short
// windows — across both L2 organizations and checks that live remaps (pages
// re-homed while accesses are in flight) never break the conservation
// identities or the page-table bijection probe.
func TestMigrationConservation(t *testing.T) {
	for _, name := range []string{"apsi", "swim", "fma3d"} {
		app, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s workload missing", name)
		}
		for _, l2 := range []layout.CacheKind{layout.PrivateL2, layout.SharedL2} {
			m, cm := pageMachine(t, l2)
			opt := core.Options{MaxAccessesPerThread: 200}
			base := baselineWorkload(t, app, m, 200)
			cfg := core.SimConfig(m, cm, opt)
			cfg.Policy = sim.PolicyFirstTouchNearest
			cfg.Migrate = aggressiveSpec()
			ck := check.New()
			cfg.Check = ck
			r, err := sim.Run(cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ck.Violations() {
				t.Errorf("%s/%v: checker: %v", name, l2, v)
			}
			tot := r.Totals(base, &cfg)
			for _, v := range check.VerifyTotals(tot) {
				t.Errorf("%s/%v: totals: %v", name, l2, v)
			}
		}
	}
}

// TestMigrationCostVisible pins the acceptance criterion that migration is
// never free: when remaps fire, the copy traffic lands in the NoC message
// totals, the registry carries the mig/* counters, and every committed
// migration paid exactly CopyFlits messages.
func TestMigrationCostVisible(t *testing.T) {
	app, ok := workloads.ByName("apsi")
	if !ok {
		t.Fatal("apsi workload missing")
	}
	m, cm := pageMachine(t, layout.PrivateL2)
	opt := core.Options{MaxAccessesPerThread: 200}
	base, _, _, err := core.Workloads(app, m, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := aggressiveSpec()
	cfg := core.SimConfig(m, cm, opt)
	cfg.Policy = sim.PolicyFirstTouchNearest
	cfg.Migrate = spec
	o := obs.New()
	cfg.Obs = o
	r, err := sim.Run(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrations == 0 {
		t.Fatal("aggressive spec triggered no migrations; the cost path is untested")
	}
	if want := r.Migrations * int64(spec.CopyFlits); r.MigCopyMsgs != want {
		t.Errorf("MigCopyMsgs = %d, want %d (%d migrations x %d flits)", r.MigCopyMsgs, want, r.Migrations, spec.CopyFlits)
	}
	if r.MigStallCycles <= 0 {
		t.Error("migrations fired but no shootdown stall was charged")
	}
	// The copies travel the NoC: the off-chip message total must exceed a
	// run identical in every respect except the engine.
	ref := cfg
	ref.Migrate = nil
	ref.Obs = nil
	rr, err := sim.Run(ref, base)
	if err != nil {
		t.Fatal(err)
	}
	gotMsgs := r.NetMsgs[0] + r.NetMsgs[1]
	refMsgs := rr.NetMsgs[0] + rr.NetMsgs[1]
	if gotMsgs < refMsgs+r.MigCopyMsgs {
		t.Errorf("NoC messages %d do not include the %d copy messages (static run: %d)", gotMsgs, r.MigCopyMsgs, refMsgs)
	}
	// And the registry agrees with the result's accounting.
	for name, want := range map[string]int64{
		"migrations": r.Migrations, "copy_msgs": r.MigCopyMsgs, "stall_cycles": r.MigStallCycles,
	} {
		if got := o.Reg.Counter("mig", name).Value(); got != want {
			t.Errorf("registry mig/%s = %d, want %d", name, got, want)
		}
	}
}

// TestMigrationDeterministic pins that a hot engine is as reproducible as
// the static policies: same config, same workload, byte-identical results.
func TestMigrationDeterministic(t *testing.T) {
	app, ok := workloads.ByName("swim")
	if !ok {
		t.Fatal("swim workload missing")
	}
	m, cm := pageMachine(t, layout.SharedL2)
	opt := core.Options{MaxAccessesPerThread: 200}
	base := baselineWorkload(t, app, m, 200)
	cfg := core.SimConfig(m, cm, opt)
	cfg.Policy = sim.PolicyFirstTouchNearest
	cfg.Migrate = aggressiveSpec()
	r1, err := sim.Run(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("hot migration engine is not deterministic across identical runs")
	}
	if r1.Migrations == 0 {
		t.Error("determinism run triggered no migrations; gate is vacuous")
	}
}

// TestMigrationValidation pins the config-level guard rails: migration
// demands page interleaving and refuses to stack on the optimal scheme.
func TestMigrationValidation(t *testing.T) {
	m := layout.Default8x8() // line interleave
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(m, cm)
	cfg.Migrate = aggressiveSpec()
	if err := cfg.Validate(); err == nil {
		t.Error("migration under line interleaving validated")
	}
	m.Interleave = layout.PageInterleave
	cfg = sim.DefaultConfig(m, cm)
	cfg.Migrate = aggressiveSpec()
	if err := cfg.Validate(); err != nil {
		t.Errorf("migration under page interleaving rejected: %v", err)
	}
	cfg.OptimalOffchip = true
	if err := cfg.Validate(); err == nil {
		t.Error("migration stacked on the optimal scheme validated")
	}
	cfg.OptimalOffchip = false
	cfg.Migrate = &mem.MigrationSpec{HotThreshold: 0, WindowCycles: 1024}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid spec (threshold 0) validated")
	}
}

// TestMigrationClusterCost pins the cluster-granularity cost model with a
// synthetic geometry where every number is computable by hand. One core in
// the far corner of a 4x4 mesh (node 15, whose nearest controller is the
// corner MC at distance 0) round-robins over the four pages of one aligned
// cluster, which page interleaving spread across all four corner MCs.
//
//   - At g=4 the cluster is one decision unit: the whole hot set moves to
//     the corner controller in ONE migration event. The member already homed
//     there is skipped, so exactly three pages re-home — MigCopyMsgs counts
//     per-member copies (3 x CopyFlits) while the single sharer pays ONE
//     shootdown for the whole cluster (MigStallCycles == ShootdownCycles).
//   - At g=1 the same trace migrates nothing: any window hot enough to
//     clear the threshold for one page also touched the page homed on the
//     target controller, so the queue-balance guard refuses every
//     candidate (the move would concentrate a spread that page
//     interleaving balanced). Cluster granularity is precisely what lets
//     the set move as a unit.
func TestMigrationClusterCost(t *testing.T) {
	m := layout.Machine{
		MeshX: 4, MeshY: 4,
		NumMCs:     4,
		LineBytes:  64,
		PageBytes:  512,
		L2:         layout.PrivateL2,
		Interleave: layout.PageInterleave,
	}
	cm, err := layout.MappingM1(m, layout.PlacementCorners(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(m, cm)
	base.L1Bytes = 1024
	base.L2Bytes = 4096

	// Core 15 at (3,3); pages 0..3 first-touch onto MCs 0..3 in order, so
	// the cluster's base page homes on MC0 at node (0,0), six hops away.
	st := sim.Stream{Core: 15}
	for i := 0; i < 600; i++ {
		st.Accesses = append(st.Accesses, sim.Access{
			VAddr:     int64(i%4)*512 + int64(i*64)%512,
			DesiredMC: -1,
		})
	}
	w := &sim.Workload{Name: "cluster", Streams: []sim.Stream{st}}

	run := func(clusterPages int) *sim.Result {
		t.Helper()
		cfg := base
		cfg.Migrate = &mem.MigrationSpec{
			HotThreshold: 2, WindowCycles: 256, CooldownWindows: 1,
			CopyFlits: 2, ShootdownCycles: 16, ClusterPages: clusterPages,
		}
		r, err := sim.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	r4 := run(4)
	if r4.Migrations != 1 {
		t.Fatalf("g=4: %d migrations, want exactly 1 (the whole cluster in one event)", r4.Migrations)
	}
	if want := int64(3 * 2); r4.MigCopyMsgs != want {
		t.Errorf("g=4: MigCopyMsgs = %d, want %d (3 off-target members x 2 flits; the member already home is not copied)",
			r4.MigCopyMsgs, want)
	}
	if want := int64(16); r4.MigStallCycles != want {
		t.Errorf("g=4: MigStallCycles = %d, want %d (one shootdown for the whole cluster, one sharer)",
			r4.MigStallCycles, want)
	}

	r1 := run(1)
	if r1.Migrations != 0 {
		t.Errorf("g=1: %d migrations, want 0 (queue-balance guard refuses every single-page move of a balanced spread)",
			r1.Migrations)
	}
	if r1.MigCopyMsgs != 0 || r1.MigStallCycles != 0 {
		t.Errorf("g=1: cost charged with no migrations: copy=%d stall=%d", r1.MigCopyMsgs, r1.MigStallCycles)
	}
}
