package main

import (
	"math"
	"time"
)

// The benchmark's hosts are shared: over minutes, their speed drifts by a
// quarter or more, and every job of a run slows together. A fixed kernel
// timed between jobs slows with them, so host times scaled by the kernel's
// slowdown compare across runs; scaling to refProbe keeps them in seconds
// at the speed of the host the bounds were calibrated on.
//
// The kernel shares the simulator's shape (an event heap, a set-associative
// LRU cache, a map-backed sharer directory, data-dependent branches) but
// none of its code, and allocates nothing, so a change to the program
// should not move it even though it runs in the same process right after
// each job. testdata/probe-check.json records the check: builds whose
// sim.Run spins for as long again, or leaves 64 MB of pointers for the
// collector after every run, slowed walls 1.4–2.6× and left the probe's
// median within the host's drift between neighbouring runs.

// refProbe is the probe's median time on the calibration host (2 vCPUs of
// an Intel Xeon at 2.0 GHz with 105 MiB of shared L3).
const refProbe = 0.041

// speedElasticity is how job times follow the probe's: in the calibration
// records, run walls grew as the probe time to the power 0.75–0.87
// depending on the workload, 0.62–0.89 over other runs on the same host
// (the probe is compute-dense and slows more than the memory-bound jobs
// do). One exponent for every workload errs by a factor s^(0.8−e) when
// two runs' host speeds differ by s: 2% at s = 1.1, 13% at s = 2 on the
// least elastic workload.
const speedElasticity = 0.8

// scale converts a host time measured while the probe took probeTime to
// seconds at the calibration host's speed.
func scale(t, probeTime float64) float64 {
	return t * math.Pow(refProbe/probeTime, speedElasticity)
}

const (
	probeSets  = 1024
	probeWays  = 8
	probeSteps = 180000
	probeCores = 64
)

type probeEvent struct {
	t    int64
	core int
}

// probe holds the kernel's state so repeated runs allocate nothing.
type probe struct {
	tags, lru []int64
	dir       map[int64]uint64
	heap      []probeEvent
	sink      int64
}

func newProbe() *probe {
	return &probe{
		tags: make([]int64, probeSets*probeWays),
		lru:  make([]int64, probeSets*probeWays),
		dir:  make(map[int64]uint64, probeSets*probeWays),
		heap: make([]probeEvent, 0, probeCores),
	}
}

func (p *probe) push(e probeEvent) {
	p.heap = append(p.heap, e)
	for i := len(p.heap) - 1; i > 0; {
		up := (i - 1) / 2
		if p.heap[up].t <= p.heap[i].t {
			break
		}
		p.heap[up], p.heap[i] = p.heap[i], p.heap[up]
		i = up
	}
}

func (p *probe) pop() probeEvent {
	e := p.heap[0]
	n := len(p.heap) - 1
	p.heap[0] = p.heap[n]
	p.heap = p.heap[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && p.heap[c+1].t < p.heap[c].t {
			c++
		}
		if p.heap[i].t <= p.heap[c].t {
			break
		}
		p.heap[i], p.heap[c] = p.heap[c], p.heap[i]
		i = c
	}
	return e
}

// run times one fixed-work pass of the kernel: probeCores cores issue
// probeSteps accesses with locality through the cache and directory.
func (p *probe) run() float64 {
	t0 := time.Now()
	clear(p.tags)
	clear(p.lru)
	clear(p.dir)
	p.heap = p.heap[:0]
	for c := 0; c < probeCores; c++ {
		p.push(probeEvent{int64(c), c})
	}
	x := uint64(0x9e3779b97f4a7c15)
	var tick, base int64
	for step := 0; step < probeSteps; step++ {
		e := p.pop()
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%64 == 0 {
			base = int64(x>>20) % (1 << 26)
		}
		addr := (base + int64(x%4096)*64) &^ 63
		set := int((addr >> 6) % probeSets)
		tick++
		hit, victim := false, set*probeWays
		for k := set * probeWays; k < (set+1)*probeWays; k++ {
			if p.tags[k] == addr {
				p.lru[k] = tick
				hit = true
				break
			}
			if p.lru[k] < p.lru[victim] {
				victim = k
			}
		}
		lat := int64(2)
		if !hit {
			if old := p.tags[victim]; old != 0 {
				if m := p.dir[old] &^ (1 << uint(e.core)); m == 0 {
					delete(p.dir, old)
				} else {
					p.dir[old] = m
				}
			}
			p.tags[victim], p.lru[victim] = addr, tick
			p.dir[addr] |= 1 << uint(e.core)
			lat = 40 + int64(x%200)
		}
		p.push(probeEvent{e.t + lat, e.core})
	}
	p.sink += tick
	return time.Since(t0).Seconds()
}
