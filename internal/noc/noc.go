// Package noc models the two-dimensional mesh network-on-chip: XY
// dimension-order routing over point-to-point links with per-link FIFO
// contention, a per-hop pipeline latency, and hop/latency accounting. It is
// a packet-level model: a message reserves each link of its path in order
// at send time, which captures the first-order contention behavior the
// paper measures (off-chip and on-chip traffic fighting over the same
// links) at a fraction of the cost of flit-level simulation.
//
// Statistics live in plain fields — per-class message, hop and latency
// totals, the Figure 15 hop histograms, and a traversal count per directed
// link — and Publish mirrors them into the metrics registry, where the link
// counts feed the -report heat grid. Per-message timing reaches observers
// through the simulator's probe stream, which reports each transit's
// departure, arrival and hop count.
package noc

import (
	"fmt"

	"offchip/internal/engine"
	"offchip/internal/mesh"
	"offchip/internal/obs"
	"offchip/internal/stats"
)

// Config sets the network parameters (Table 1: 16-byte links, 2-cycle
// router pipeline, 4-cycle per-hop latency, XY routing).
type Config struct {
	MeshX, MeshY int
	// HopLatency is the pipeline latency a flit experiences per hop.
	HopLatency int64
	// LinkOccupancy is how long one message occupies each link (serialization
	// time of a cache-line-sized packet over a 16 B link).
	LinkOccupancy int64
	// Contention disables link reservation when false (the ablation knob:
	// an ideal network with pure distance latency).
	Contention bool
	// Obs supplies the metrics registry. Nil gets the network a private
	// registry, so standalone use stays fully observable.
	Obs *obs.Observer
}

// DefaultConfig returns the paper's Table 1 network for the given mesh.
func DefaultConfig(meshX, meshY int) Config {
	return Config{
		MeshX: meshX, MeshY: meshY,
		HopLatency:    4,
		LinkOccupancy: 1,
		Contention:    true,
	}
}

// Class tags a message for the statistics split the paper reports:
// on-chip accesses (cache-to-cache, L1-to-L2-bank, directory traffic)
// versus off-chip accesses (to or from a memory controller).
type Class int

const (
	OnChip Class = iota
	OffChip
)

func (c Class) String() string {
	if c == OnChip {
		return "on-chip"
	}
	return "off-chip"
}

// Network is the mesh NoC.
type Network struct {
	cfg   Config
	links []engine.Resource // directed links, indexed by node·4 + direction

	// Aggregate stats, split by message class.
	Messages [2]int64 // message count
	Hops     [2]int64 // total hops
	Latency  [2]int64 // total network cycles (incl. contention stalls)

	hopCounts  [2][]int64 // Figure 15: messages per hop count 0..diameter, plus overflow
	traversals []int64    // per directed link, indexed like links
	feed       *obs.Feed
}

// New builds a network. It panics on a non-positive mesh.
func New(cfg Config) *Network {
	if cfg.MeshX <= 0 || cfg.MeshY <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", cfg.MeshX, cfg.MeshY))
	}
	// The XY diameter: a minimal route crosses at most (MeshX−1)+(MeshY−1)
	// links, so the hop histogram needs exactly diameter+1 buckets (0..diam).
	// Sizing it larger would leave permanently-empty rows in the Figure 15
	// CDF tables (and hide routing bugs that overshoot the diameter in the
	// overflow bucket instead of failing the conservation check).
	maxHops := cfg.MeshX + cfg.MeshY - 2
	n := &Network{
		cfg:        cfg,
		links:      make([]engine.Resource, cfg.MeshX*cfg.MeshY*4),
		traversals: make([]int64, cfg.MeshX*cfg.MeshY*4),
		feed:       obs.NewFeed(obs.OrNew(cfg.Obs).Reg),
	}
	for c := 0; c < 2; c++ {
		label := "class=" + Class(c).String()
		n.hopCounts[c] = make([]int64, maxHops+2)
		n.feed.Histogram(n.hopCounts[c], &n.Hops[c], &n.Messages[c], "noc", "hops", obs.LinearBuckets(0, 1, maxHops+1), label)
		n.feed.Counter(&n.Messages[c], "noc", "messages", label)
		n.feed.Counter(&n.Hops[c], "noc", "hops_total", label)
		n.feed.Counter(&n.Latency[c], "noc", "latency_cycles", label)
	}
	dirDelta := [4]mesh.Node{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
	for y := 0; y < cfg.MeshY; y++ {
		for x := 0; x < cfg.MeshX; x++ {
			from := mesh.Node{X: x, Y: y}
			base := mesh.CoreID(from, cfg.MeshX) * 4
			fromLabel := "from=" + from.String()
			for d, delta := range dirDelta {
				to := mesh.Node{X: x + delta.X, Y: y + delta.Y}
				if to.X < 0 || to.X >= cfg.MeshX || to.Y < 0 || to.Y >= cfg.MeshY {
					continue // mesh edge: no link in this direction
				}
				n.feed.Counter(&n.traversals[base+d], "noc", "link_traversals", fromLabel, "to="+to.String())
			}
		}
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Directed links leaving a node, in link-index order (see New's dirDelta).
const (
	dirEast  = iota // X+1
	dirWest         // X−1
	dirSouth        // Y+1
	dirNorth        // Y−1
)

// Transit sends a message from src to dst at time now, reserving each link
// of the XY route in order — every X step first, then every Y step — and
// returns the arrival time and hop count. A zero-hop transit (src == dst)
// arrives immediately. The route is walked in place, so a transit does not
// allocate.
func (n *Network) Transit(now int64, src, dst mesh.Node, class Class) (arrival int64, hops int) {
	t := now
	cur := src
	for cur.X != dst.X {
		dir, step := dirEast, 1
		if cur.X > dst.X {
			dir, step = dirWest, -1
		}
		t = n.hop(mesh.CoreID(cur, n.cfg.MeshX)*4+dir, t)
		cur.X += step
		hops++
	}
	for cur.Y != dst.Y {
		dir, step := dirSouth, 1
		if cur.Y > dst.Y {
			dir, step = dirNorth, -1
		}
		t = n.hop(mesh.CoreID(cur, n.cfg.MeshX)*4+dir, t)
		cur.Y += step
		hops++
	}
	n.Messages[class]++
	n.Hops[class] += int64(hops)
	n.Latency[class] += t - now
	n.hopCounts[class][min(hops, len(n.hopCounts[class])-1)]++
	return t, hops
}

// hop carries a message that reaches link li's router at time t across the
// link, and returns when it reaches the next router.
func (n *Network) hop(li int, t int64) int64 {
	n.traversals[li]++
	if !n.cfg.Contention {
		return t + n.cfg.HopLatency
	}
	start := n.links[li].Reserve(t, n.cfg.LinkOccupancy)
	// The serialization time the message holds the link is part of its own
	// delivery time, not only a stall imposed on followers: the tail flit
	// lands LinkOccupancy after the link grant. This makes a quiet contended
	// network slower than the ideal one by exactly LinkOccupancy per hop
	// (the check package's zero-load oracle pins that identity).
	return start + n.cfg.LinkOccupancy + n.cfg.HopLatency
}

// HopCDF returns the cumulative fraction of the class's messages that
// traverse x or fewer links, for x = 0..diameter (Figure 15). An unused
// class yields all zeros.
func (n *Network) HopCDF(class Class) []float64 {
	// XY routing never exceeds the mesh diameter, so the overflow bucket is
	// left out: one entry per reachable hop count.
	counts := n.hopCounts[class]
	return stats.CumulativeFractions(counts[:len(counts)-1])
}

// Publish mirrors the statistics into the registry (see obs.Feed); call it
// on the goroutine that drives Transit.
func (n *Network) Publish() { n.feed.Publish() }

// ResetStats clears the accumulated statistics (links keep their horizon).
// It must not follow a Publish: the registry only ever adds.
func (n *Network) ResetStats() {
	for c := 0; c < 2; c++ {
		n.Messages[c], n.Hops[c], n.Latency[c] = 0, 0, 0
		clear(n.hopCounts[c])
	}
	clear(n.traversals)
}
