package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLRU is a deliberately naive reference model of one set-associative LRU
// cache: a map per set from line tag to last-use tick, evicting the minimum
// tick when a full set misses. It shares nothing with the array-based
// implementation except the set-index function, so any disagreement — hit
// status, which line is evicted, whether an eviction is reported at all —
// is a property violation in one of them.
type refLRU struct {
	ways int
	sets []map[int64]int64 // set → line → last-use tick
	tick int64
}

func newRefLRU(sets, ways int) *refLRU {
	r := &refLRU{ways: ways, sets: make([]map[int64]int64, sets)}
	for i := range r.sets {
		r.sets[i] = map[int64]int64{}
	}
	return r
}

// access mirrors Cache.Access: returns (hit, evicted line or -1).
func (r *refLRU) access(set int, line int64) (bool, int64) {
	r.tick++
	m := r.sets[set]
	if _, ok := m[line]; ok {
		m[line] = r.tick
		return true, -1
	}
	evicted := int64(-1)
	if len(m) == r.ways {
		// Evict the least recently used line. Ticks are unique, so the
		// minimum is unambiguous.
		var lru int64
		min := int64(1<<62 - 1)
		for tag, t := range m {
			if t < min {
				min, lru = t, tag
			}
		}
		evicted = lru
		delete(m, lru)
	}
	m[line] = r.tick
	return false, evicted
}

func (r *refLRU) contains(set int, line int64) bool {
	_, ok := r.sets[set][line]
	return ok
}

// geometry is one cache shape the equivalence tests run over.
type geometry struct {
	capacity, lineBytes int64
	ways                int
}

func (g geometry) String() string {
	return fmt.Sprintf("%dB_%dB-line_%d-way", g.capacity, g.lineBytes, g.ways)
}

// lruGeometries are small corner shapes plus the simulator's own caches.
var lruGeometries = []geometry{
	{256, 64, 1},        // direct-mapped, 4 sets
	{256, 64, 2},        // 2 sets × 2 ways
	{256, 64, 4},        // fully associative single set
	{512, 32, 4},        // 4 sets × 4 ways
	{1024, 64, 8},       // 2 sets × 8 ways
	{2048, 64, 2},       // 16 sets × 2 ways: core.SimConfig's L1
	{96, 32, 3},         // non-power-of-two: 1 set × 3 ways
	{3072, 64, 16},      // 3 sets × 16 ways
	{8 << 10, 64, 16},   // core.SimConfig's private L2
	{16 << 10, 64, 16},  // core.SimConfig's shared-L2 bank
	{16 << 10, 64, 2},   // sim.DefaultConfig's L1
	{256 << 10, 64, 16}, // sim.DefaultConfig's L2
}

// addrString is a random access string over a pool of lines four times the
// cache's capacity, so sets overflow and evictions are common. One access in
// four re-touches one of the last 32 lines, so many hits land on a set's
// newest lines, way 0 included. Sub-line offsets are random: they must not
// matter.
func addrString(rng *rand.Rand, g geometry, n int) []int64 {
	poolLines := 4 * g.capacity / g.lineBytes
	addrs := make([]int64, n)
	for i := range addrs {
		lineIdx := rng.Int63n(poolLines)
		if i > 0 && rng.Intn(4) == 0 {
			lineIdx = addrs[i-1-rng.Intn(min(i, 32))] / g.lineBytes
		}
		addrs[i] = lineIdx*g.lineBytes + rng.Int63n(g.lineBytes)
	}
	return addrs
}

// accessCount is long enough for every set of g to fill and overflow many
// times.
func accessCount(g geometry) int {
	return max(4000, 16*int(g.capacity/g.lineBytes))
}

// TestLRUPropertyVsReference exercises geometries and random access strings
// against the reference model, checking per access: hit/miss agreement,
// exact LRU victim identity, eviction reported only when the set is full (a
// fill into a set with an empty way evicts nothing), and Contains agreement
// over the whole address pool.
func TestLRUPropertyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range lruGeometries {
		t.Run(g.String(), func(t *testing.T) {
			c := New(g.capacity, g.lineBytes, g.ways)
			ref := newRefLRU(c.sets, c.ways)
			wantHits, wantMisses, wantEvictions, emptyFills := int64(0), int64(0), int64(0), 0
			for i, addr := range addrString(rng, g, accessCount(g)) {
				line := c.LineAddr(addr)
				set := c.setOf(line)
				full := len(ref.sets[set]) == g.ways

				hit, evicted := c.Access(addr)
				refHit, refEvicted := ref.access(set, line)
				if hit != refHit {
					t.Fatalf("access %d (line %#x): hit=%v, reference says %v", i, line, hit, refHit)
				}
				if evicted != refEvicted {
					t.Fatalf("access %d (line %#x): evicted %#x, reference says %#x",
						i, line, evicted, refEvicted)
				}
				if !hit && !full {
					if evicted != -1 {
						t.Fatalf("access %d (line %#x): fill into a set with an empty way evicted %#x", i, line, evicted)
					}
					emptyFills++
				}
				if hit {
					wantHits++
				} else {
					wantMisses++
				}
				if evicted >= 0 {
					wantEvictions++
				}
			}
			if emptyFills == 0 || wantHits == 0 || wantEvictions == 0 {
				t.Fatalf("string too weak: %d fills into empty ways, %d hits, %d evictions", emptyFills, wantHits, wantEvictions)
			}
			if c.Hits != wantHits || c.Misses != wantMisses || c.Evictions != wantEvictions {
				t.Errorf("stats: hits=%d misses=%d evictions=%d, want %d/%d/%d",
					c.Hits, c.Misses, c.Evictions, wantHits, wantMisses, wantEvictions)
			}
			// Final-state sweep: both models agree on residency of every
			// line in the pool.
			for line := int64(0); line < 4*g.capacity; line += g.lineBytes {
				if got, want := c.Contains(line), ref.contains(c.setOf(line), line); got != want {
					t.Errorf("Contains(%#x) = %v, reference says %v", line, got, want)
				}
			}
		})
	}
}

// TestSnapshotRestoreReplays snapshots a cache partway through a random
// string and restores it into a fresh cache and, after the original ran on,
// back into the original. Over the same suffix each copy must return the
// original's (hit, evicted) at every access and the same counter deltas:
// the snapshot is a deep copy of the whole replacement state and carries no
// statistics.
func TestSnapshotRestoreReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type result struct {
		hit     bool
		evicted int64
	}
	for _, g := range lruGeometries {
		t.Run(g.String(), func(t *testing.T) {
			addrs := addrString(rng, g, accessCount(g))
			prefix, suffix := addrs[:len(addrs)/2], addrs[len(addrs)/2:]
			run := func(c *Cache) (out []result, hits, misses, evictions int64) {
				h0, m0, e0 := c.Hits, c.Misses, c.Evictions
				for _, a := range suffix {
					hit, ev := c.Access(a)
					out = append(out, result{hit, ev})
				}
				return out, c.Hits - h0, c.Misses - m0, c.Evictions - e0
			}
			orig := New(g.capacity, g.lineBytes, g.ways)
			for _, a := range prefix {
				orig.Access(a)
			}
			snap := orig.Snapshot()
			want, wh, wm, we := run(orig)
			if wh == 0 || we == 0 {
				t.Fatalf("suffix too weak: %d hits, %d evictions", wh, we)
			}

			fresh := New(g.capacity, g.lineBytes, g.ways)
			fresh.Restore(snap)
			if fresh.Hits != 0 || fresh.Misses != 0 || fresh.Evictions != 0 {
				t.Fatalf("Restore carried statistics: %d/%d/%d", fresh.Hits, fresh.Misses, fresh.Evictions)
			}
			orig.Restore(snap)
			for _, copy := range []struct {
				name string
				c    *Cache
			}{{"fresh", fresh}, {"in place", orig}} {
				got, h, m, e := run(copy.c)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: suffix access %d (addr %#x) = %+v, original %+v", copy.name, i, suffix[i], got[i], want[i])
					}
				}
				if h != wh || m != wm || e != we {
					t.Errorf("%s: counter deltas %d/%d/%d, original %d/%d/%d", copy.name, h, m, e, wh, wm, we)
				}
			}
		})
	}
}
