package noc

import (
	"testing"

	"offchip/internal/mesh"
)

func TestTransitLatencyUncontended(t *testing.T) {
	n := New(DefaultConfig(8, 8))
	src, dst := mesh.Node{X: 0, Y: 0}, mesh.Node{X: 3, Y: 2}
	arr, hops := n.Transit(0, src, dst, OffChip)
	if hops != 5 {
		t.Errorf("hops = %d, want 5", hops)
	}
	// Per hop: 1 cycle of link serialization + 4 cycles of router pipeline.
	if arr != 5*(4+1) {
		t.Errorf("arrival = %d, want 25 (5 hops × (4+1) cycles)", arr)
	}
	if n.Messages[OffChip] != 1 || n.Hops[OffChip] != 5 {
		t.Errorf("stats: %d msgs %d hops", n.Messages[OffChip], n.Hops[OffChip])
	}
}

// TestSerializationInArrival pins the satellite fix: the cycles a message
// holds each link must reach its arrival time, so a zero-load contended
// network is slower than the ideal (contention-free) one by exactly
// LinkOccupancy per hop.
func TestSerializationInArrival(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	src, dst := mesh.Node{X: 0, Y: 0}, mesh.Node{X: 2, Y: 1}
	real, hops := New(cfg).Transit(100, src, dst, OnChip)
	cfg.Contention = false
	ideal, _ := New(cfg).Transit(100, src, dst, OnChip)
	if want := ideal + int64(hops)*cfg.LinkOccupancy; real != want {
		t.Errorf("contended zero-load arrival = %d, want ideal %d + %d×occupancy = %d",
			real, ideal, hops, want)
	}
}

func TestTransitZeroHop(t *testing.T) {
	n := New(DefaultConfig(4, 4))
	arr, hops := n.Transit(7, mesh.Node{X: 1, Y: 1}, mesh.Node{X: 1, Y: 1}, OnChip)
	if arr != 7 || hops != 0 {
		t.Errorf("arrival=%d hops=%d", arr, hops)
	}
}

func TestContentionDelays(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	n := New(cfg)
	src, dst := mesh.Node{X: 0, Y: 0}, mesh.Node{X: 1, Y: 0}
	// Two messages over the same link at the same time: the second is
	// delayed by the link occupancy.
	a1, _ := n.Transit(0, src, dst, OnChip)
	a2, _ := n.Transit(0, src, dst, OnChip)
	if a1 != cfg.LinkOccupancy+cfg.HopLatency {
		t.Errorf("first arrival = %d, want %d", a1, cfg.LinkOccupancy+cfg.HopLatency)
	}
	if a2 != 2*cfg.LinkOccupancy+cfg.HopLatency {
		t.Errorf("second arrival = %d, want %d", a2, 2*cfg.LinkOccupancy+cfg.HopLatency)
	}

	// With contention disabled, both arrive together.
	cfg.Contention = false
	n2 := New(cfg)
	b1, _ := n2.Transit(0, src, dst, OnChip)
	b2, _ := n2.Transit(0, src, dst, OnChip)
	if b1 != b2 {
		t.Errorf("ideal network diverged: %d vs %d", b1, b2)
	}
}

func TestXYRoutingDisjointPathsDontContend(t *testing.T) {
	n := New(DefaultConfig(4, 4))
	a1, _ := n.Transit(0, mesh.Node{X: 0, Y: 0}, mesh.Node{X: 3, Y: 0}, OnChip)
	a2, _ := n.Transit(0, mesh.Node{X: 0, Y: 3}, mesh.Node{X: 3, Y: 3}, OnChip)
	if a1 != a2 {
		t.Errorf("disjoint paths contended: %d vs %d", a1, a2)
	}
	// Opposite directions of the same physical channel are separate links.
	n2 := New(DefaultConfig(4, 4))
	c1, _ := n2.Transit(0, mesh.Node{X: 0, Y: 0}, mesh.Node{X: 1, Y: 0}, OnChip)
	c2, _ := n2.Transit(0, mesh.Node{X: 1, Y: 0}, mesh.Node{X: 0, Y: 0}, OnChip)
	if c1 != c2 {
		t.Errorf("reverse direction contended: %d vs %d", c1, c2)
	}
}

func TestHopCDF(t *testing.T) {
	n := New(DefaultConfig(8, 8))
	n.Transit(0, mesh.Node{}, mesh.Node{X: 1, Y: 0}, OffChip) // 1 hop
	n.Transit(0, mesh.Node{}, mesh.Node{X: 2, Y: 0}, OffChip) // 2 hops
	n.Transit(0, mesh.Node{}, mesh.Node{X: 2, Y: 2}, OffChip) // 4 hops
	cdf := n.HopCDF(OffChip)
	if cdf[0] != 0 {
		t.Errorf("cdf[0] = %v", cdf[0])
	}
	if cdf[1] < 0.33 || cdf[1] > 0.34 {
		t.Errorf("cdf[1] = %v", cdf[1])
	}
	if cdf[4] != 1 || cdf[len(cdf)-1] != 1 {
		t.Errorf("cdf tail = %v", cdf)
	}
	// Unused class: all zeros.
	for _, v := range n.HopCDF(OnChip) {
		if v != 0 {
			t.Error("empty class CDF nonzero")
		}
	}
}

// TestHopCDFLength pins the Figure 15 shape: exactly one entry per
// reachable hop count, 0 through the XY diameter (MeshX−1)+(MeshY−1).
func TestHopCDFLength(t *testing.T) {
	for _, tc := range []struct{ x, y, want int }{
		{8, 8, 15}, // diameter 14
		{4, 4, 7},  // diameter 6
		{4, 2, 5},  // diameter 4
		{1, 1, 1},  // single node: only 0 hops
	} {
		n := New(DefaultConfig(tc.x, tc.y))
		for _, class := range []Class{OnChip, OffChip} {
			if got := len(n.HopCDF(class)); got != tc.want {
				t.Errorf("%dx%d class %v: CDF has %d entries, want %d", tc.x, tc.y, class, got, tc.want)
			}
		}
		// The full corner-to-corner route must land in the last bucket, not
		// the folded-away overflow bucket.
		corner := mesh.Node{X: tc.x - 1, Y: tc.y - 1}
		n.Transit(0, mesh.Node{}, corner, OffChip)
		cdf := n.HopCDF(OffChip)
		if cdf[len(cdf)-1] != 1 {
			t.Errorf("%dx%d: diameter transit missing from CDF tail: %v", tc.x, tc.y, cdf)
		}
	}
}

func TestAvgStatsAndReset(t *testing.T) {
	n := New(DefaultConfig(8, 8))
	n.Transit(0, mesh.Node{}, mesh.Node{X: 2, Y: 0}, OnChip)
	if n.Messages[OnChip] != 1 || n.Hops[OnChip] != 2 {
		t.Errorf("Messages %d, Hops %d, want 1 and 2", n.Messages[OnChip], n.Hops[OnChip])
	}
	if got := n.Latency[OnChip]; got != 10 {
		t.Errorf("Latency = %d, want 10 (2 hops × (4+1))", got)
	}
	n.ResetStats()
	if n.Messages[OnChip] != 0 || n.Hops[OnChip] != 0 || n.Latency[OnChip] != 0 {
		t.Error("reset incomplete")
	}
}

func TestClassString(t *testing.T) {
	if OnChip.String() != "on-chip" || OffChip.String() != "off-chip" {
		t.Error("class strings")
	}
}

// TestTransitFollowsXYPath pins the in-place route walk to mesh.XYPath: for
// every src/dst pair of an 8×8 mesh, one Transit on a fresh network crosses
// exactly the links of the XY path, each once, and reports its length as the
// hop count. Path order shows in the link horizons: at zero load, link k is
// granted at k·(HopLatency+LinkOccupancy), so it frees LinkOccupancy later.
func TestTransitFollowsXYPath(t *testing.T) {
	const x, y = 8, 8
	cfg := Config{MeshX: x, MeshY: y, HopLatency: 4, LinkOccupancy: 1, Contention: true}
	for s := 0; s < x*y; s++ {
		for d := 0; d < x*y; d++ {
			src, dst := mesh.CoordOf(s, x), mesh.CoordOf(d, x)
			n := New(cfg)
			_, hops := n.Transit(0, src, dst, OffChip)
			path := mesh.XYPath(src, dst)
			if hops != len(path) {
				t.Fatalf("%v->%v: %d hops, XYPath has %d links", src, dst, hops, len(path))
			}
			onPath := map[int]bool{}
			prev := src
			for k, next := range path {
				li := linkIndex(prev, next, x)
				onPath[li] = true
				want := int64(k)*(cfg.HopLatency+cfg.LinkOccupancy) + cfg.LinkOccupancy
				if got := n.links[li].FreeAt(); got != want {
					t.Fatalf("%v->%v: link %d (%v->%v) frees at %d, want %d", src, dst, k, prev, next, got, want)
				}
				prev = next
			}
			for li, c := range n.traversals {
				want := int64(0)
				if onPath[li] {
					want = 1
				}
				if c != want {
					t.Fatalf("%v->%v: link index %d traversed %d times, want %d", src, dst, li, c, want)
				}
			}
		}
	}
}

// linkIndex returns the index of the directed link between adjacent nodes.
func linkIndex(from, to mesh.Node, meshX int) int {
	dir := dirEast
	switch {
	case to.X < from.X:
		dir = dirWest
	case to.Y > from.Y:
		dir = dirSouth
	case to.Y < from.Y:
		dir = dirNorth
	}
	return mesh.CoreID(from, meshX)*4 + dir
}

// BenchmarkTransit measures one contended transit over a spread of routes;
// make bench-smoke pins it at 0 allocs/op.
func BenchmarkTransit(b *testing.B) {
	const x, y = 8, 8
	n := New(DefaultConfig(x, y))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := mesh.CoordOf(i%(x*y), x)
		dst := mesh.CoordOf((i*37+11)%(x*y), x)
		n.Transit(int64(i/4), src, dst, OffChip)
	}
}
