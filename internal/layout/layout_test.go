package layout

import (
	"strings"
	"testing"

	"offchip/internal/ir"
	"offchip/internal/linalg"
	"offchip/internal/mesh"
)

func testMachine() Machine {
	return Machine{
		MeshX: 4, MeshY: 4,
		NumMCs:     4,
		LineBytes:  64,
		PageBytes:  512,
		L2:         PrivateL2,
		Interleave: LineInterleave,
	}
}

func mustM1(t *testing.T, m Machine) *ClusterMapping {
	t.Helper()
	cm, err := MappingM1(m, PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestMachineValidate(t *testing.T) {
	if err := Default8x8().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := Default8x8()
	bad.NumMCs = 7
	if err := bad.Validate(); err == nil {
		t.Error("64 cores / 7 MCs accepted")
	}
	bad = Default8x8()
	bad.PageBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("page not multiple of line accepted")
	}
	if Default8x8().UnitBytes() != 256 {
		t.Error("line interleave unit != line size")
	}
	pg := Default8x8()
	pg.Interleave = PageInterleave
	if pg.UnitBytes() != 4096 {
		t.Error("page interleave unit != page size")
	}
}

func TestClusterMappingM1(t *testing.T) {
	m := Default8x8()
	cm := mustM1(t, m)
	if cm.NumClusters() != 4 || cm.K != 1 {
		t.Fatalf("M1 shape: %d clusters, K=%d", cm.NumClusters(), cm.K)
	}
	if cm.CoresPerCluster() != 16 {
		t.Errorf("cores per cluster = %d", cm.CoresPerCluster())
	}
	// Quadrant membership: core 0 (0,0) in cluster 0; core 7 (7,0) in
	// cluster 1; core 56 (0,7) in cluster 2; core 63 in cluster 3.
	for _, c := range []struct{ core, want int }{{0, 0}, {7, 1}, {56, 2}, {63, 3}, {27, 0}, {36, 3}} {
		if got := cm.ClusterOf(c.core); got != c.want {
			t.Errorf("ClusterOf(%d) = %d, want %d", c.core, got, c.want)
		}
	}
	// Core 27 = (3,3) is in the TL quadrant: cluster 0, MC0 at (0,0).
	if got := cm.MCsOf(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("MCsOf(0) = %v", got)
	}
	// Each quadrant's assigned corner MC is its nearest MC.
	p := cm.Placement
	for core := 0; core < 64; core++ {
		n := mesh.CoordOf(core, 8)
		want := cm.MCsOf(cm.ClusterOf(core))[0]
		if got := p.NearestMC(n); p.Dist(n, got) != p.Dist(n, want) {
			t.Errorf("core %d: assigned MC%d at distance %d, nearest MC%d at %d",
				core, want, p.Dist(n, want), got, p.Dist(n, got))
		}
	}
}

func TestClusterMappingM2(t *testing.T) {
	m := Default8x8()
	cm, err := MappingM2(m, PlacementCorners(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if cm.NumClusters() != 2 || cm.K != 2 {
		t.Fatalf("M2 shape: %d clusters, K=%d", cm.NumClusters(), cm.K)
	}
	if got := cm.MCsOf(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("MCsOf(0) = %v", got)
	}
	// M2 trades locality for MLP: its average distance must exceed M1's.
	m1 := mustM1(t, m)
	if cm.AvgDistToMC() <= m1.AvgDistToMC() {
		t.Errorf("M2 avg dist %.2f <= M1 avg dist %.2f", cm.AvgDistToMC(), m1.AvgDistToMC())
	}
}

func TestPlacements(t *testing.T) {
	for _, p := range []*MCPlacement{
		PlacementCorners(8, 8), PlacementDiamond(8, 8), PlacementTopBottom(8, 8),
	} {
		if err := p.Validate(8, 8); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.NumMCs() != 4 {
			t.Errorf("%s: %d MCs", p.Name, p.NumMCs())
		}
	}
	// Diamond minimizes mean distance over all nodes (Figure 19: P2 best).
	meanDist := func(p *MCPlacement) float64 {
		total := 0
		for core := 0; core < 64; core++ {
			n := mesh.CoordOf(core, 8)
			total += p.Dist(n, p.NearestMC(n))
		}
		return float64(total) / 64
	}
	d, c := meanDist(PlacementDiamond(8, 8)), meanDist(PlacementCorners(8, 8))
	if d >= c {
		t.Errorf("diamond mean dist %.2f >= corners %.2f", d, c)
	}
}

func TestPlacementPerimeter(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		p, err := PlacementPerimeter(8, 8, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := p.Validate(8, 8); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if p.NumMCs() != n {
			t.Errorf("n=%d: placed %d", n, p.NumMCs())
		}
	}
	if _, err := PlacementPerimeter(8, 8, 7); err == nil {
		t.Error("untileable MC count accepted")
	}
}

// The paper's running example (Figure 9/10): Z[j][i] with the i-loop
// parallel wants the transposed layout Z'[i][j].
func TestDataToCorePaperExample(t *testing.T) {
	p := ir.MustParse(`
program fig9
param N = 17
array Z[17][17]
parfor i = 2 .. N-1 {
  for j = 2 .. N-1 {
    Z[j][i] = Z[j-1][i] + Z[j][i] + Z[j+1][i]
  }
}
`)
	d2c, err := dataToCore(p, p.Array("Z"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d2c.Gv.Equal(linalg.NewVec(0, 1)) {
		t.Errorf("gv = %v, want (0, 1)", d2c.Gv)
	}
	if !d2c.U.Row(0).Equal(linalg.NewVec(0, 1)) {
		t.Errorf("U row 0 = %v", d2c.U.Row(0))
	}
	if !linalg.IsUnimodular(d2c.U) {
		t.Errorf("U not unimodular:\n%v", d2c.U)
	}
	if d2c.Satisfied != 1.0 {
		t.Errorf("satisfied = %v, want 1 (all references share B)", d2c.Satisfied)
	}
	// The transformed reference is Z'[i][j]: applying U to the write's
	// subscripts must swap them.
	m := testMachine()
	al, err := customize(d2c, m, mustM1(t, m), m.Cores())
	if err != nil {
		t.Fatal(err)
	}
	subs := al.TransformedSubs(p.Nests[0].Body[0].Write)
	if subs[0].String() != "i" || subs[1].String() != "j" {
		t.Errorf("transformed subs = [%s][%s], want [i][j]", subs[0], subs[1])
	}
}

func TestDataToCoreUnoptimizable(t *testing.T) {
	// Array indexed only by the sequential loop: no thread-separating
	// hyperplane exists.
	p := ir.MustParse(`
program bad
array A[16]
parfor i = 0 .. 16 {
  for j = 0 .. 16 {
    A[j] = A[j]
  }
}
`)
	_, err := dataToCore(p, p.Array("A"), nil)
	if err == nil {
		t.Fatal("expected not-optimizable")
	}
	var eno *ErrNotOptimizable
	if !errorsAs(err, &eno) {
		t.Fatalf("error type %T", err)
	}
}

func errorsAs(err error, target **ErrNotOptimizable) bool {
	e, ok := err.(*ErrNotOptimizable)
	if ok {
		*target = e
	}
	return ok
}

func TestWeightedSubmatrixSelection(t *testing.T) {
	// Two nests prefer conflicting layouts; the one with the larger trip
	// count must win. Nest 1 (64x64 iterations) accesses A[i][j] (parallel
	// over i, wants row partitioning); nest 2 (4x4) accesses A[j][i]
	// (parallel over i, wants column partitioning).
	p := ir.MustParse(`
program conflict
array A[64][64]
parfor i = 0 .. 64 {
  for j = 0 .. 64 {
    A[i][j] = A[i][j]
  }
}
parfor i = 0 .. 4 {
  for j = 0 .. 4 {
    A[j][i] = A[j][i]
  }
}
`)
	d2c, err := dataToCore(p, p.Array("A"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Winner: the heavy nest, whose B = A·(drop i col) has nullspace (1,0):
	// partition by the first subscript = i.
	if !d2c.Gv.Equal(linalg.NewVec(1, 0)) {
		t.Errorf("gv = %v, want (1, 0)", d2c.Gv)
	}
	// 64·64·2 refs of weight satisfied out of 64·64·2 + 4·4·2.
	wantSat := float64(2*64*64) / float64(2*64*64+2*4*4)
	if diff := d2c.Satisfied - wantSat; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("satisfied = %v, want %v", d2c.Satisfied, wantSat)
	}
}

// elements yields every coordinate of the array.
func elements(arr *ir.Array) []linalg.Vec {
	coords := []linalg.Vec{{}}
	for _, d := range arr.Dims {
		var next []linalg.Vec
		for _, c := range coords {
			for v := int64(0); v < d; v++ {
				cc := append(c.Clone(), v)
				next = append(next, cc)
			}
		}
		coords = next
	}
	return coords
}

func optimizeOne(t *testing.T, m Machine, cm *ClusterMapping, src string) (*Result, *ArrayLayout, *ir.Program) {
	t.Helper()
	p := ir.MustParse(src)
	res, err := Optimize(p, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Layout(p.Arrays[0]), p
}

const identitySrc = `
program ident
array A[16][16]
parfor i = 0 .. 16 {
  for j = 0 .. 16 {
    A[i][j] = A[i][j]
  }
}
`

func TestPrivateLayoutSteersMCs(t *testing.T) {
	m := testMachine()
	cm := mustM1(t, m)
	_, al, p := optimizeOne(t, m, cm, identitySrc)
	if !al.Optimized {
		t.Fatalf("not optimized: %s", al.Reason)
	}
	arr := p.Arrays[0]
	seen := map[int64]bool{}
	elemsPerThread := arr.NumElems() / int64(m.Cores()) // 16 rows / 16 threads
	for _, c := range elements(arr) {
		off := al.Offset(c)
		if off < 0 || off >= al.SizeBytes() {
			t.Fatalf("offset %d outside [0,%d) for %v", off, al.SizeBytes(), c)
		}
		if off%arr.ElemSize != 0 {
			t.Fatalf("misaligned offset %d for %v", off, c)
		}
		if seen[off] {
			t.Fatalf("offset %d assigned twice (at %v)", off, c)
		}
		seen[off] = true
		// U is the identity here, so row c[0] belongs to thread c[0]
		// (b = 1); the line-interleaved MC of the address must be the
		// thread's cluster's controller.
		owner := int(c[0])
		wantMC := cm.MCsOf(cm.ClusterOf(owner))
		gotMC := int((off / m.LineBytes) % int64(m.NumMCs))
		if gotMC != wantMC[0] {
			t.Errorf("element %v (owner core %d): line maps to MC%d, cluster wants %v", c, owner, gotMC, wantMC)
		}
		if dm := al.DesiredMC(off); dm != gotMC {
			t.Errorf("element %v: DesiredMC %d != interleaved MC %d", c, dm, gotMC)
		}
		_ = elemsPerThread
	}
}

func TestPrivateLayoutM2SpreadsOverK(t *testing.T) {
	m := testMachine()
	cm, err := MappingM2(m, PlacementCorners(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, al, p := optimizeOne(t, m, cm, identitySrc)
	arr := p.Arrays[0]
	// Every element must map to one of its cluster's two controllers, and
	// both controllers of each cluster must be used.
	used := map[int]map[int]bool{}
	for _, c := range elements(arr) {
		off := al.Offset(c)
		owner := int(c[0])
		ord := cm.ClusterOf(owner)
		gotMC := int((off / m.LineBytes) % int64(m.NumMCs))
		ok := false
		for _, mc := range cm.MCsOf(ord) {
			if mc == gotMC {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("element %v: MC%d not in cluster %d's set %v", c, gotMC, ord, cm.MCsOf(ord))
		}
		if used[ord] == nil {
			used[ord] = map[int]bool{}
		}
		used[ord][gotMC] = true
	}
	for ord, mcs := range used {
		if len(mcs) != 2 {
			t.Errorf("cluster %d used %d controllers, want 2 (MLP)", ord, len(mcs))
		}
	}
}

func TestPageInterleaveDesiredMCPageConstant(t *testing.T) {
	m := testMachine()
	m.Interleave = PageInterleave
	cm := mustM1(t, m)
	_, al, p := optimizeOne(t, m, cm, identitySrc)
	if !al.Optimized {
		t.Fatalf("not optimized: %s", al.Reason)
	}
	arr := p.Arrays[0]
	byPage := map[int64]int{}
	for _, c := range elements(arr) {
		off := al.Offset(c)
		page := off / m.PageBytes
		mc := al.DesiredMC(off)
		if mc < 0 || mc >= m.NumMCs {
			t.Fatalf("DesiredMC = %d", mc)
		}
		if prev, ok := byPage[page]; ok && prev != mc {
			t.Fatalf("page %d wants both MC%d and MC%d", page, prev, mc)
		}
		byPage[page] = mc
	}
}

func TestSharedLayoutMCsAdjacentOrDesired(t *testing.T) {
	m := testMachine()
	m.L2 = SharedL2
	cm := mustM1(t, m)
	_, al, p := optimizeOne(t, m, cm, identitySrc)
	if !al.Optimized {
		t.Fatalf("not optimized: %s", al.Reason)
	}
	arr := p.Arrays[0]
	allowed := allowedMCs(cm)
	seen := map[int64]bool{}
	for _, c := range elements(arr) {
		off := al.Offset(c)
		if off < 0 || off >= al.SizeBytes() {
			t.Fatalf("offset %d outside [0,%d)", off, al.SizeBytes())
		}
		if seen[off] {
			t.Fatalf("offset %d reused", off)
		}
		seen[off] = true
		owner := int(c[0]) // identity U, b = 1
		gotMC := int((off / m.LineBytes) % int64(m.NumMCs))
		if !allowed[cm.ClusterOf(owner)][gotMC] {
			t.Errorf("element %v (owner %d, cluster %d): MC%d is in the excluded set",
				c, owner, cm.ClusterOf(owner), gotMC)
		}
	}
}

func TestSharedRequiresLineInterleave(t *testing.T) {
	m := testMachine()
	m.L2 = SharedL2
	m.Interleave = PageInterleave
	cm := mustM1(t, m)
	p := ir.MustParse(identitySrc)
	if _, err := Optimize(p, m, cm, nil); err == nil {
		t.Error("shared L2 + page interleave accepted")
	}
}

func TestAllowedMCsExcludesDiagonal(t *testing.T) {
	m := Default8x8()
	cm := mustM1(t, m)
	allowed := allowedMCs(cm)
	// Cluster 0 (TL): desired MC0 at (0,0). Adjacent: MC1 (7,0) and MC2
	// (0,7) at distance 7. Excluded: MC3 (7,7) at distance 14.
	want := []bool{true, true, true, false}
	for mc, w := range want {
		if allowed[0][mc] != w {
			t.Errorf("allowed[0][%d] = %v, want %v", mc, allowed[0][mc], w)
		}
	}
}

func TestOptimizeStats(t *testing.T) {
	m := testMachine()
	cm := mustM1(t, m)
	res, _, _ := optimizeOne(t, m, cm, identitySrc)
	if res.ArraysTotal != 1 || res.ArraysOptimized != 1 {
		t.Errorf("stats: %d/%d", res.ArraysOptimized, res.ArraysTotal)
	}
	if res.PctArraysOptimized() != 100 || res.PctRefsSatisfied() != 100 {
		t.Errorf("percentages: %v%% arrays, %v%% refs", res.PctArraysOptimized(), res.PctRefsSatisfied())
	}
	if !strings.Contains(res.Report(), "optimized") {
		t.Error("report missing content")
	}
}

func TestOptimizeSkipsIndexArrays(t *testing.T) {
	m := testMachine()
	cm := mustM1(t, m)
	p := ir.MustParse(`
program spmv
array x[64]
array col[64] elem 4
array y[64]
parfor i = 0 .. 64 {
  for k = 0 .. 1 {
    y[i] = y[i] + x[col[i]]
  }
}
`)
	res, err := Optimize(p, m, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	// col is a pure index array: excluded from the optimization universe.
	if res.ArraysTotal != 2 {
		t.Errorf("ArraysTotal = %d, want 2 (x and y)", res.ArraysTotal)
	}
	colLayout := res.Layout(p.Array("col"))
	if colLayout.Optimized {
		t.Error("index array was transformed")
	}
	// x is only reached through an unapproximable indexed ref: identity.
	if res.Layout(p.Array("x")).Optimized {
		t.Error("x optimized without an approximator")
	}
	// y is affine and optimizable.
	if !res.Layout(p.Array("y")).Optimized {
		t.Errorf("y not optimized: %s", res.Layout(p.Array("y")).Reason)
	}
	if res.PctRefsSatisfied() >= 100 {
		t.Errorf("refs satisfied = %v%%, expected < 100 with indexed refs", res.PctRefsSatisfied())
	}
}

func TestOptimizeValidatesInputs(t *testing.T) {
	m := testMachine()
	cm := mustM1(t, m)
	p := ir.MustParse(identitySrc)
	if _, err := Optimize(p, m, nil, nil); err == nil {
		t.Error("nil mapping accepted")
	}
	other := Default8x8()
	if _, err := Optimize(p, other, cm, nil); err == nil {
		t.Error("mesh-size mismatch accepted")
	}
	badM := m
	badM.NumMCs = 2
	if _, err := Optimize(p, badM, cm, nil); err == nil {
		t.Error("MC-count mismatch accepted")
	}
}

func TestChooseMapping(t *testing.T) {
	m := Default8x8()
	p := PlacementCorners(8, 8)
	m1 := mustM1(t, m)
	m2, err := MappingM2(m, p)
	if err != nil {
		t.Fatal(err)
	}
	cands := []*ClusterMapping{m1, m2}
	// Low demand: locality wins (M1). This is most applications.
	low := DemandProfile{ConcurrentRequests: 3, BankServiceHops: 10}
	if got := ChooseMapping(cands, low, 4); got != m1 {
		t.Errorf("low demand chose %s", got.Name)
	}
	// High demand (fma3d, minighost): MLP wins (M2).
	high := DemandProfile{ConcurrentRequests: 16, BankServiceHops: 10}
	if got := ChooseMapping(cands, high, 4); got != m2 {
		t.Errorf("high demand chose %s", got.Name)
	}
	if ChooseMapping(nil, low, 4) != nil {
		t.Error("empty candidate set returned a mapping")
	}
}

func TestIdentityLayoutOffset(t *testing.T) {
	arr := &ir.Array{Name: "A", Dims: []int64{4, 4}, ElemSize: 8}
	al := IdentityLayout(arr, "baseline")
	if got := al.Offset(linalg.NewVec(2, 3)); got != (2*4+3)*8 {
		t.Errorf("Offset = %d", got)
	}
	if al.SizeBytes() != 128 {
		t.Errorf("SizeBytes = %d", al.SizeBytes())
	}
	if al.DesiredMC(64) != -1 {
		t.Error("identity layout expressed an MC preference")
	}
}

func TestLayoutFootprintPaddingBounded(t *testing.T) {
	// Padding must stay sane (within 4x of the original footprint for a
	// square array; the paper reports ~4% total runtime overhead).
	m := testMachine()
	cm := mustM1(t, m)
	_, al, p := optimizeOne(t, m, cm, identitySrc)
	orig := p.Arrays[0].SizeBytes()
	if al.SizeBytes() > 4*orig {
		t.Errorf("footprint %d > 4x original %d", al.SizeBytes(), orig)
	}
}

func TestAssignHomeBanksPermutation(t *testing.T) {
	m := Default8x8()
	cm := mustM1(t, m)
	homes := assignHomeBanks(cm)
	if len(homes) != 64 {
		t.Fatalf("%d home assignments", len(homes))
	}
	seen := map[int]bool{}
	allowed := allowedMCs(cm)
	distSum := 0
	for core, h := range homes {
		if seen[h] {
			t.Fatalf("bank %d homes two cores' data", h)
		}
		seen[h] = true
		// The bank's residue must select an allowed (desired-or-adjacent)
		// controller for the core's cluster.
		if !allowed[cm.ClusterOf(core)][h%cm.NumMCs()] {
			t.Errorf("core %d homed on bank %d with excluded MC%d", core, h, h%cm.NumMCs())
		}
		distSum += mesh.Dist(mesh.CoordOf(core, 8), mesh.CoordOf(h, 8))
	}
	// On-chip locality: the matching keeps homes close (cf. the 5.33-hop
	// average of random home banks on an 8x8 mesh).
	if avg := float64(distSum) / 64; avg > 2.5 {
		t.Errorf("average owner-to-home distance %.2f hops, want <= 2.5", avg)
	}
}

func TestSharedLayoutWithM2(t *testing.T) {
	m := testMachine()
	m.L2 = SharedL2
	cm, err := MappingM2(m, PlacementCorners(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, al, p := optimizeOne(t, m, cm, identitySrc)
	if !al.Optimized {
		t.Fatalf("not optimized: %s", al.Reason)
	}
	allowed := allowedMCs(cm)
	for _, c := range elements(p.Arrays[0]) {
		off := al.Offset(c)
		owner := int(c[0]) // identity U, b = 1
		gotMC := int((off / m.LineBytes) % int64(m.NumMCs))
		if !allowed[cm.ClusterOf(owner)][gotMC] {
			t.Fatalf("element %v: MC%d excluded for cluster %d", c, gotMC, cm.ClusterOf(owner))
		}
	}
}

func TestClusterMappingValidationErrors(t *testing.T) {
	m := Default8x8()
	good := mustM1(t, m)
	bad := *good
	bad.ClustersX = 3 // 8 % 3 != 0
	if bad.Validate() == nil {
		t.Error("uneven tiling accepted")
	}
	bad = *good
	bad.K = 0
	if bad.Validate() == nil {
		t.Error("K=0 accepted")
	}
	bad = *good
	bad.Placement = nil
	if bad.Validate() == nil {
		t.Error("nil placement accepted")
	}
	bad = *good
	bad.K = 2 // 4 clusters × 2 = 8 MCs but placement has 4
	if bad.Validate() == nil {
		t.Error("MC count mismatch accepted")
	}
	p := &MCPlacement{Name: "bad", Nodes: []mesh.Node{{X: 9, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}}
	if p.Validate(8, 8) == nil {
		t.Error("off-mesh MC accepted")
	}
	p2 := &MCPlacement{Name: "dup", Nodes: []mesh.Node{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}}
	if p2.Validate(8, 8) == nil {
		t.Error("duplicate MC node accepted")
	}
}

func TestMachineLineUnit(t *testing.T) {
	m := Default8x8()
	if m.LineUnit() != 256 {
		t.Errorf("LineUnit = %d (Table 1: 256B interleave unit)", m.LineUnit())
	}
	m.InterleaveBytes = 0
	if m.LineUnit() != m.LineBytes {
		t.Errorf("LineUnit fallback = %d", m.LineUnit())
	}
	m = Default8x8()
	m.InterleaveBytes = 100 // not a multiple of 64
	if m.Validate() == nil {
		t.Error("misaligned interleave unit accepted")
	}
}

func TestMappingCostMonotonicInDemand(t *testing.T) {
	m := Default8x8()
	cm := mustM1(t, m)
	low := MappingCost(cm, DemandProfile{ConcurrentRequests: 2, BankServiceHops: 10}, 4)
	high := MappingCost(cm, DemandProfile{ConcurrentRequests: 20, BankServiceHops: 10}, 4)
	if high <= low {
		t.Errorf("cost not monotone in demand: %v vs %v", low, high)
	}
	if def := DefaultDemand(); def.ConcurrentRequests <= 0 || def.BankServiceHops <= 0 {
		t.Error("default demand degenerate")
	}
}
