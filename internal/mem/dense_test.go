package mem

import (
	"math/rand"
	"testing"
)

// TestAddressSpaceSparseHighPage touches a page far past the page table's
// end: the table grows to reach it, the pages in between stay untouched,
// and snapshots of the grown table restore independently of their source
// and of each other.
func TestAddressSpaceSparseHighPage(t *testing.T) {
	const high = 1 << 16
	as := NewAddressSpace(pageCfg(), 0, NewInterleavedPolicy(4))
	as.Translate(0, 0, -1)
	p := as.Translate(high*4096+8, 0, -1)
	if p%4096 != 8 || as.MCOf(p) != 1 {
		t.Fatalf("high page translated to %#x (MC %d), want offset 8 on MC 1", p, as.MCOf(p))
	}
	for vp, want := range map[int64]int{0: 0, high: 1} {
		if mc, ok := as.PageMC(vp); !ok || mc != want {
			t.Errorf("PageMC(%d) = %d,%v, want %d,true", vp, mc, ok, want)
		}
	}
	for _, vp := range []int64{-1, 1, high - 1, high + 1, 1 << 40} {
		if mc, ok := as.PageMC(vp); ok {
			t.Errorf("untouched PageMC(%d) = %d,true", vp, mc)
		}
	}
	if _, ok := as.Remap(1<<40, 2); ok {
		t.Error("Remap of a page past the table's end succeeded")
	}
	if err := as.VerifyBijection(); err != nil {
		t.Fatal(err)
	}

	snap := as.Snapshot()
	// Diverge the source: move the high page, touch one past it.
	as.Remap(high, 3)
	as.Translate((high+5)*4096, 0, -1)

	restored := NewAddressSpace(pageCfg(), 0, NewInterleavedPolicy(4))
	restored.Restore(snap)
	if mc, ok := restored.PageMC(high); !ok || mc != 1 {
		t.Errorf("restored PageMC(high) = %d,%v, want 1,true: the source's remap leaked", mc, ok)
	}
	if _, ok := restored.PageMC(high + 5); ok {
		t.Error("restored space sees a page the source touched after the snapshot")
	}
	if err := restored.VerifyBijection(); err != nil {
		t.Fatalf("restored space: %v", err)
	}
	// Diverge the restored copy, growing its table past the source's.
	restored.Remap(0, 2)
	restored.Translate(4*high*4096, 0, -1)
	if mc, _ := as.PageMC(0); mc != 0 {
		t.Errorf("source PageMC(0) = %d after the restored copy remapped it", mc)
	}
	if _, ok := as.PageMC(4 * high); ok {
		t.Error("source sees a page only the restored copy touched")
	}

	// Restoring over the diverged source rewinds it to the snapshot.
	as.Restore(snap)
	if mc, ok := as.PageMC(high); !ok || mc != 1 {
		t.Errorf("rewound PageMC(high) = %d,%v, want 1,true", mc, ok)
	}
	if _, ok := as.PageMC(high + 5); ok {
		t.Error("rewound space kept a page touched after the snapshot")
	}
	if err := as.VerifyBijection(); err != nil {
		t.Fatalf("rewound space: %v", err)
	}
}

// TestAddressSpaceNonPowerOfTwoPage covers the division fallback of the
// page split.
func TestAddressSpaceNonPowerOfTwoPage(t *testing.T) {
	cfg := pageCfg()
	cfg.PageBytes = 3000
	as := NewAddressSpace(cfg, 0, NewInterleavedPolicy(4))
	if vp := as.VPage(5*3000 + 2999); vp != 5 {
		t.Errorf("VPage = %d, want 5", vp)
	}
	p := as.Translate(5*3000+7, 0, -1) // first touch: frame 0 on MC 0
	if p != 7 {
		t.Errorf("Translate = %d, want 7", p)
	}
	if q := as.Translate(6*3000+10, 0, -1); q != 1*3000+10 {
		t.Errorf("second page translated to %d, want frame 1 offset 10", q)
	}
	if mc, ok := as.PageMC(6); !ok || mc != 1 {
		t.Errorf("PageMC(6) = %d,%v, want 1,true", mc, ok)
	}
}

// TestMigratorClusterOfThree runs the cluster decision unit at a
// granularity that is not a power of two, where page → cluster uses
// division: touches aggregate over the aligned cluster [6, 9), its
// neighbours never pool with it, and Completed on any member page unfreezes
// the whole cluster.
func TestMigratorClusterOfThree(t *testing.T) {
	spec := MigrationSpec{HotThreshold: 15, WindowCycles: 100, ShootdownCycles: 1, ClusterPages: 3}
	g := NewMigrator(spec, 8, nearestByMod, distByMod)
	if g.ClusterPages() != 3 {
		t.Fatalf("ClusterPages() = %d", g.ClusterPages())
	}
	hot := func() {
		for v := int64(6); v < 9; v++ {
			touchN(g, PageID{App: 1, VPage: v}, 7, 5) // 15 on the cluster
		}
	}
	for w := 0; w < 2; w++ {
		// 5 and 9 sit in the clusters either side of [6, 9).
		touchN(g, PageID{App: 1, VPage: 5}, 7, 14)
		touchN(g, PageID{App: 1, VPage: 9}, 7, 14)
		// The same pages of another application are another unit.
		touchN(g, PageID{App: 0, VPage: 7}, 7, 14)
		hot()
		migs := g.Roll(homeAt(0))
		if w == 0 {
			if len(migs) != 0 {
				t.Fatalf("unconfirmed first window migrated: %+v", migs)
			}
			continue
		}
		if len(migs) != 1 {
			t.Fatalf("got %d migrations, want 1: %+v", len(migs), migs)
		}
		if m := migs[0]; m.Page != (PageID{App: 1, VPage: 6}) || m.Pages != 3 || m.To != 3 || m.Count != 15 {
			t.Fatalf("migration %+v, want app 1 cluster base 6 extent 3 -> MC3 on 15 touches", m)
		}
	}
	// In flight: the cluster is frozen however hot it runs.
	for w := 0; w < 2; w++ {
		hot()
		if migs := g.Roll(homeAt(0)); len(migs) != 0 {
			t.Fatalf("pending cluster migrated again: %+v", migs)
		}
	}
	// Committing through a member page, not the base, unfreezes it.
	g.Completed(PageID{App: 1, VPage: 8})
	for w := 0; w < 2; w++ {
		hot()
		migs := g.Roll(homeAt(0))
		if w == 1 && (len(migs) != 1 || migs[0].Page.VPage != 6) {
			t.Fatalf("unfrozen cluster: got %+v, want cluster 6 to migrate again", migs)
		}
	}
}

// BenchmarkTranslate is page-interleaved translation of pages already
// touched.
func BenchmarkTranslate(b *testing.B) {
	as := NewAddressSpace(pageCfg(), 0, NewInterleavedPolicy(4))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = rng.Int63n(1 << 22) // 1024 pages
		as.Translate(addrs[i], 0, -1)
	}
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += as.Translate(addrs[i%len(addrs)], i%64, -1)
	}
	_ = sink
}

// BenchmarkMigratorTouch is the engine's per-reference work under the
// default spec: one Touch per op over two applications' pages, with a
// window closing (Roll) every 4096 touches.
func BenchmarkMigratorTouch(b *testing.B) {
	const cores, window = 64, 4096
	g := NewMigrator(DefaultMigrationSpec(), cores, nearestByMod, distByMod)
	home := func(p PageID) int { return int(p.VPage % 4) }
	rng := rand.New(rand.NewSource(1))
	pages := make([]PageID, 1<<14)
	who := make([]int, len(pages))
	for i := range pages {
		pages[i] = PageID{App: rng.Intn(2), VPage: rng.Int63n(1024)}
		who[i] = rng.Intn(cores)
	}
	op := func(i int) {
		k := i % len(pages)
		g.Touch(pages[k], who[k])
		if i%window == window-1 {
			for _, mg := range g.Roll(home) {
				g.Completed(mg.Page)
			}
		}
	}
	for i := 0; i < 4*window; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(4*window + i)
	}
}
