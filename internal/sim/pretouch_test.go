package sim_test

import (
	"reflect"
	"testing"

	"offchip/internal/core"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

// TestPreTouchMatchesPerAccessWalk: preTouch translates only the accesses
// to pages without a frame. It must leave exactly the page tables of the
// per-access walk — every touched
// page on the same frame, hence the same controller, and the same
// allocation cursors and policy state — under every page policy, for one
// application's baseline and optimized traces (the latter carry the
// layout pass's desired controllers), a phase mix (trace.ComposeMix) and a
// co-run (trace.Merge).
func TestPreTouchMatchesPerAccessWalk(t *testing.T) {
	m, cm := pageMachine(t, layout.PrivateL2)
	opt := core.Options{MaxAccessesPerThread: 1500}
	type input struct {
		name        string
		base, optim *sim.Workload
	}
	var inputs []input
	app, _ := workloads.ByName("fma3d")
	base, optim, _, err := core.Workloads(app, m, cm, opt)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"fma3d", base, optim})
	for _, spec := range []string{"mix2(apsi@16+gafort@0)", "co2(swim+apsi)"} {
		mix, err := workloads.ParseMixSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		base, err := core.MixRunWorkload(*mix, "baseline", m, cm, opt)
		if err != nil {
			t.Fatal(err)
		}
		optim, err := core.MixRunWorkload(*mix, "optimized", m, cm, opt)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{spec, base, optim})
	}
	// Two applications whose adjacent streams meet on one virtual page: a
	// page touched in one address space is untouched in the next.
	page := m.PageBytes
	meet := &sim.Workload{Name: "meet", Streams: []sim.Stream{
		{Core: 0, AppID: 0, Accesses: []sim.Access{{VAddr: 0, DesiredMC: 3}, {VAddr: 3 * page, DesiredMC: 2}}},
		{Core: 9, AppID: 1, Accesses: []sim.Access{{VAddr: 3*page + 8, DesiredMC: 1}, {VAddr: 5 * page, DesiredMC: -1}}},
	}}
	inputs = append(inputs, input{"meet", meet, meet})
	policies := map[string]sim.PolicyKind{
		"interleaved": sim.PolicyInterleaved,
		"osassisted":  sim.PolicyOSAssisted,
		"firsttouch":  sim.PolicyFirstTouch,
		"ftnearest":   sim.PolicyFirstTouchNearest,
	}
	for _, in := range inputs {
		for trace, w := range map[string]*sim.Workload{"baseline": in.base, "optimized": in.optim} {
			for pname, pol := range policies {
				cfg := core.SimConfig(m, cm, opt)
				cfg.Policy = pol
				got := sim.PageTables(cfg, w, false)
				want := sim.PageTables(cfg, w, true)
				if len(got) != len(want) {
					t.Fatalf("%s %s %s: %d address spaces, reference %d", in.name, trace, pname, len(got), len(want))
				}
				for appID := range want {
					if want[appID] == nil {
						continue
					}
					if n := want[appID].PagesAllocated(); n == 0 {
						t.Fatalf("%s %s %s: app %d touched no page", in.name, trace, pname, appID)
					}
					if !reflect.DeepEqual(got[appID].Snapshot(), want[appID].Snapshot()) {
						t.Errorf("%s %s %s: app %d's page table differs from the per-access walk's", in.name, trace, pname, appID)
					}
				}
			}
		}
	}
}
