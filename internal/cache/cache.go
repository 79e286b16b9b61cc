// Package cache provides the set-associative LRU caches of the simulated
// manycore (per-node L1s, private or shared-SNUCA L2 banks) and the
// centralized L2 tag directory that private-L2 systems cache at the memory
// controllers (Figure 2a). A cache keeps each set as its tags alone, in
// recency order, in one flat array, and the directory is an open-addressed
// hash table of line → sharer bitmask, so a lookup touches no Go map.
// Caches count hits, misses and evictions in plain fields and optionally
// mirror them into the metrics registry (Instrument, Publish).
package cache

import (
	"fmt"
	"math/bits"

	"offchip/internal/mesh"
	"offchip/internal/obs"
)

// emptyTag marks a way that holds no line. Addresses are non-negative, so
// no line address collides with it, and Access reports it as the evicted
// line of a fill into an empty way.
const emptyTag = -1

// Cache is a set-associative cache with LRU replacement. It tracks only
// tags (the simulator never stores data), which is all latency modeling
// needs. Addresses must be non-negative.
type Cache struct {
	sets      int
	ways      int
	lineBytes int64

	// lineShift and setMask replace the line-size division and the
	// set-count modulus when those are powers of two; -1 otherwise.
	lineShift int
	setMask   int64

	// Set s is tags[s·ways:(s+1)·ways] in recency order: the most recently
	// used line first, the least recently used last, and empty ways
	// (emptyTag) at the tail. A fill takes the last way, so it uses an
	// empty way before it evicts a valid line.
	tags []int64

	Hits, Misses, Evictions int64

	feed *obs.Feed // set by Instrument; nil publishes nothing
}

// Instrument attaches the cache to an observer under the component name
// (e.g. "l1.3"): Publish mirrors the hit/miss/eviction counts into the
// registry.
func (c *Cache) Instrument(o *obs.Observer, comp string) {
	if o == nil {
		return
	}
	c.feed = obs.NewFeed(o.Reg)
	label := "comp=" + comp
	c.feed.Counter(&c.Hits, "cache", "hits", label)
	c.feed.Counter(&c.Misses, "cache", "misses", label)
	c.feed.Counter(&c.Evictions, "cache", "evictions", label)
}

// Publish mirrors the counts into the registry of the Instrument observer
// (see obs.Feed); call it on the goroutine that drives Access.
func (c *Cache) Publish() {
	if c.feed != nil {
		c.feed.Publish()
	}
}

// CheckGeometry reports whether New accepts a geometry: every size must be
// positive and the capacity a whole number of sets of ways lines each (the
// set count need not be a power of two).
func CheckGeometry(capacityBytes, lineBytes int64, ways int) error {
	if capacityBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		return fmt.Errorf("geometry %dB/%dB/%d-way: sizes must be positive", capacityBytes, lineBytes, ways)
	}
	if set := lineBytes * int64(ways); capacityBytes%set != 0 {
		return fmt.Errorf("geometry %dB/%dB/%d-way: capacity is not a whole number of %dB sets",
			capacityBytes, lineBytes, ways, set)
	}
	return nil
}

// New builds a cache of the given total capacity. It panics on a geometry
// CheckGeometry rejects.
func New(capacityBytes, lineBytes int64, ways int) *Cache {
	if err := CheckGeometry(capacityBytes, lineBytes, ways); err != nil {
		panic("cache: " + err.Error())
	}
	sets := int(capacityBytes/lineBytes) / ways
	c := &Cache{
		sets: sets, ways: ways, lineBytes: lineBytes,
		lineShift: -1, setMask: -1,
		tags: make([]int64, sets*ways),
	}
	if lineBytes&(lineBytes-1) == 0 {
		c.lineShift = bits.TrailingZeros64(uint64(lineBytes))
	}
	if sets&(sets-1) == 0 {
		c.setMask = int64(sets - 1)
	}
	for i := range c.tags {
		c.tags[i] = emptyTag
	}
	return c
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr int64) int64 {
	if c.lineShift >= 0 {
		return addr &^ (c.lineBytes - 1)
	}
	return addr - addr%c.lineBytes
}

func (c *Cache) setOf(line int64) int {
	// XOR-folded set index, as in real L2 designs: strided access patterns
	// (including the cluster-interleaved layouts this simulator exists to
	// study) would otherwise alias a fraction of the sets and manufacture
	// conflict misses the paper's hardware does not see.
	var x int64
	if c.lineShift >= 0 {
		x = line >> c.lineShift
	} else {
		x = line / c.lineBytes
	}
	x = x ^ (x >> 5) ^ (x >> 11)
	if c.setMask >= 0 {
		return int(x & c.setMask)
	}
	return int(x % int64(c.sets))
}

// set returns the tags of the set holding line, most recent first.
func (c *Cache) set(line int64) []int64 {
	lo := c.setOf(line) * c.ways
	hi := lo + c.ways
	return c.tags[lo:hi:hi]
}

// Access looks up the line containing addr, filling it on a miss. It
// returns whether the access hit, and the address of the line evicted to
// make room (-1 when nothing valid was evicted).
func (c *Cache) Access(addr int64) (hit bool, evicted int64) {
	line := c.LineAddr(addr)
	tags := c.set(line)
	if tags[0] == line {
		c.Hits++
		return true, -1
	}
	// Find the line, or else take the last way: the LRU line or an empty
	// way. Either way the line moves to the front.
	w := 1
	for w < len(tags) && tags[w] != line {
		w++
	}
	evicted = -1
	if w < len(tags) {
		hit = true
		c.Hits++
	} else {
		w--
		evicted = tags[w]
		c.Misses++
		if evicted != emptyTag {
			c.Evictions++
		}
	}
	copy(tags[1:w+1], tags[:w])
	tags[0] = line
	return hit, evicted
}

// Contains reports whether the line containing addr is present, without
// disturbing LRU state or statistics.
func (c *Cache) Contains(addr int64) bool {
	line := c.LineAddr(addr)
	for _, tag := range c.set(line) {
		if tag == line {
			return true
		}
	}
	return false
}

// ResetStats zeroes the hit/miss/eviction counters while leaving the tag
// and LRU state intact, so statistics after a functional warm-up pass
// reflect only the timed accesses that follow. It must not follow a
// Publish: the registry only ever adds.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions = 0, 0, 0
}

// Snapshot captures the cache's tags in their recency order (not the
// statistics counters) as a deep copy, so an identical warm state can be
// restored into many runs without replaying the accesses that built it.
type Snapshot struct {
	tags []int64
}

// Snapshot captures the current tag/LRU state.
func (c *Cache) Snapshot() *Snapshot {
	return &Snapshot{tags: append([]int64(nil), c.tags...)}
}

// Restore overwrites the tag/LRU state with the snapshot's. The cache must
// have the geometry the snapshot was taken from.
func (c *Cache) Restore(s *Snapshot) {
	if len(s.tags) != len(c.tags) {
		panic(fmt.Sprintf("cache: restoring %d-line snapshot into %d-line cache",
			len(s.tags), len(c.tags)))
	}
	copy(c.tags, s.tags)
}

// MaxDirectoryCores bounds the sharer bitmask width of the directory.
const MaxDirectoryCores = 64

// dirInitSlots is a new directory's table size. The table doubles whenever
// it passes half full; 64 cores' private L2s of 128 lines each need at most
// 16 384 slots.
const dirInitSlots = 1024

// Directory is the centralized L2 tag directory of the private-L2 system,
// logically partitioned across memory controllers: it records which
// private L2s hold each line so a miss can be served by an on-chip
// cache-to-cache transfer instead of going off-chip.
//
// It is an open-addressed hash table with linear probing over two parallel
// arrays, keys (line addresses) and masks (sharer bitmasks). A zero mask
// marks an empty slot: a line whose last sharer leaves is deleted by
// shifting the rest of its probe run back, so the table needs no
// tombstones.
type Directory struct {
	keys  []int64
	masks []uint64
	shift uint // 64 − log2(len(keys)): the hash keeps the product's top bits
	n     int  // occupied slots
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	d := &Directory{}
	d.alloc(dirInitSlots)
	return d
}

// alloc gives the directory an empty table of size slots (a power of two).
func (d *Directory) alloc(size int) {
	d.keys = make([]int64, size)
	d.masks = make([]uint64, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	d.n = 0
}

// home is the slot a line's probe run starts at: a Fibonacci hash of the
// line address.
func (d *Directory) home(line int64) int {
	return int(uint64(line) * 0x9e3779b97f4a7c15 >> d.shift)
}

// slot returns the slot holding line, or the empty slot that ends its probe
// run when the directory does not track it.
func (d *Directory) slot(line int64) int {
	mask := len(d.keys) - 1
	i := d.home(line)
	for d.masks[i] != 0 && d.keys[i] != line {
		i = (i + 1) & mask
	}
	return i
}

// Owner returns the core whose L2 holds the line that is nearest to the
// requester by mesh hop distance (on a width-meshX mesh, row-major core
// IDs), or -1 when no other L2 holds it. The requester itself is excluded —
// its own L2 already missed. Ties break toward the lowest core ID, keeping
// the choice deterministic. Picking the nearest sharer models a
// distance-aware directory: always forwarding from the lowest-numbered
// sharer would bias every cache-to-cache transfer toward core 0's corner
// and turn it into a hotspot for widely shared lines.
func (d *Directory) Owner(line int64, requester, meshX int) int {
	m := d.masks[d.slot(line)] &^ (1 << uint(requester))
	if m == 0 {
		return -1
	}
	reqNode := mesh.CoordOf(requester, meshX)
	best, bestD := -1, 1<<30
	// Ascending core IDs with a strict < keep ties on the lowest ID.
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if dist := mesh.Dist(reqNode, mesh.CoordOf(i, meshX)); dist < bestD {
			best, bestD = i, dist
		}
	}
	return best
}

// Add records that core's L2 now holds the line.
func (d *Directory) Add(line int64, core int) {
	if core < 0 || core >= MaxDirectoryCores {
		panic(fmt.Sprintf("cache: directory core %d out of range", core))
	}
	i := d.slot(line)
	if d.masks[i] != 0 {
		d.masks[i] |= 1 << uint(core)
		return
	}
	d.keys[i], d.masks[i] = line, 1<<uint(core)
	if d.n++; 2*d.n > len(d.keys) {
		d.grow()
	}
}

// grow doubles the table and reinserts every entry.
func (d *Directory) grow() {
	keys, masks := d.keys, d.masks
	d.alloc(2 * len(keys))
	for i, m := range masks {
		if m != 0 {
			j := d.slot(keys[i])
			d.keys[j], d.masks[j] = keys[i], m
			d.n++
		}
	}
}

// Remove records that core's L2 evicted the line.
func (d *Directory) Remove(line int64, core int) {
	if core < 0 || core >= MaxDirectoryCores {
		return
	}
	i := d.slot(line)
	if d.masks[i] == 0 {
		return
	}
	if d.masks[i] &^= 1 << uint(core); d.masks[i] == 0 {
		d.delete(i)
	}
}

// delete empties slot i by backward-shift deletion: each later entry of the
// probe run whose home lies at or before the hole (cyclically) moves into
// it, and the hole moves on to where that entry was.
func (d *Directory) delete(i int) {
	mask := len(d.keys) - 1
	for j := (i + 1) & mask; d.masks[j] != 0; j = (j + 1) & mask {
		if (j-d.home(d.keys[j]))&mask >= (j-i)&mask {
			d.keys[i], d.masks[i] = d.keys[j], d.masks[j]
			i = j
		}
	}
	d.masks[i] = 0
	d.n--
}

// DirectorySnapshot is a deep copy of a directory's table.
type DirectorySnapshot struct {
	keys  []int64
	masks []uint64
	n     int
}

// Snapshot returns a copy of the directory's table.
func (d *Directory) Snapshot() *DirectorySnapshot {
	return &DirectorySnapshot{
		keys:  append([]int64(nil), d.keys...),
		masks: append([]uint64(nil), d.masks...),
		n:     d.n,
	}
}

// Restore overwrites the directory's table with a copy of s, reusing the
// directory's arrays when they are the snapshot's size.
func (d *Directory) Restore(s *DirectorySnapshot) {
	if len(d.keys) != len(s.keys) {
		d.alloc(len(s.keys))
	}
	copy(d.keys, s.keys)
	copy(d.masks, s.masks)
	d.n = s.n
}

// Entries returns the number of tracked lines (for tests).
func (d *Directory) Entries() int { return d.n }

// Sharers returns the bitmask of cores whose L2s hold the line.
func (d *Directory) Sharers(line int64) uint64 { return d.masks[d.slot(line)] }
