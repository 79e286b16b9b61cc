package cache

import (
	"math/bits"
	"math/rand"
	"testing"

	"offchip/internal/mesh"
)

// refOwner is Owner over a plain sharer mask: the lowest-ID sharer nearest
// the requester, excluding the requester.
func refOwner(m uint64, requester, meshX int) int {
	best, bestD := -1, 1<<30
	for i := 0; i < MaxDirectoryCores; i++ {
		if m&(1<<uint(i)) == 0 || i == requester {
			continue
		}
		d := mesh.Dist(mesh.CoordOf(requester, meshX), mesh.CoordOf(i, meshX))
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// checkTable verifies the open-addressing invariants: the occupied count
// matches Entries, no line occupies two slots, and every entry is reachable
// from its home slot without crossing an empty slot (the property
// backward-shift deletion must preserve).
func checkTable(t *testing.T, d *Directory) {
	t.Helper()
	size := len(d.keys)
	seen := map[int64]bool{}
	n := 0
	for i, m := range d.masks {
		if m == 0 {
			continue
		}
		n++
		if seen[d.keys[i]] {
			t.Fatalf("line %#x occupies two slots", d.keys[i])
		}
		seen[d.keys[i]] = true
		for j := d.home(d.keys[i]); j != i; j = (j + 1) % size {
			if d.masks[j] == 0 {
				t.Fatalf("line %#x at slot %d unreachable: empty slot %d on its probe run", d.keys[i], i, j)
			}
		}
	}
	if n != d.Entries() {
		t.Fatalf("%d occupied slots, Entries() = %d", n, d.Entries())
	}
}

// agree checks every line of the pool against the reference model.
func agree(t *testing.T, d *Directory, ref map[int64]uint64, pool []int64, meshX int) {
	t.Helper()
	if d.Entries() != len(ref) {
		t.Fatalf("Entries() = %d, reference tracks %d lines", d.Entries(), len(ref))
	}
	for i, line := range pool {
		if got, want := d.Sharers(line), ref[line]; got != want {
			t.Fatalf("Sharers(%#x) = %#x, reference %#x", line, got, want)
		}
		req := i % MaxDirectoryCores
		if got, want := d.Owner(line, req, meshX), refOwner(ref[line], req, meshX); got != want {
			t.Fatalf("Owner(%#x, %d) = %d, reference %d", line, req, got, want)
		}
	}
}

// TestDirectoryVsReference drives the open-addressed directory and a
// map[int64]uint64 model with the same random Add/Remove stream and checks
// Sharers, Owner and Entries agree, first over keys chosen to collide at
// the table's last slot (so probe runs and backward-shift deletion wrap
// around the end), then over a line pool large enough to force several
// growths, and finally across a Snapshot → mutate → Restore round trip.
func TestDirectoryVsReference(t *testing.T) {
	const meshX = 8
	rng := rand.New(rand.NewSource(1))
	d := NewDirectory()
	ref := map[int64]uint64{}
	add := func(line int64, core int) {
		d.Add(line, core)
		ref[line] |= 1 << uint(core)
	}
	remove := func(line int64, core int) {
		d.Remove(line, core)
		if m := ref[line] &^ (1 << uint(core)); m == 0 {
			delete(ref, line)
		} else {
			ref[line] = m
		}
	}

	// Wrap-around: lines whose home is one of the last two slots or the
	// first, so their probe runs straddle the table's end.
	size := len(d.keys)
	var collide []int64
	for x := int64(0); len(collide) < 24; x += 64 {
		if h := d.home(x); h >= size-2 || h == 0 {
			collide = append(collide, x)
		}
	}
	for round := 0; round < 20; round++ {
		for _, line := range collide {
			add(line, rng.Intn(MaxDirectoryCores))
		}
		checkTable(t, d)
		agree(t, d, ref, collide, meshX)
		for _, i := range rng.Perm(len(collide)) {
			line := collide[i]
			for m := ref[line]; m != 0; m &= m - 1 {
				if rng.Intn(3) > 0 {
					remove(line, bits.TrailingZeros64(m))
				}
			}
			checkTable(t, d)
		}
		agree(t, d, ref, collide, meshX)
	}
	if len(d.keys) != size {
		t.Fatalf("the collision phase grew the table to %d slots; it must stay at %d to wrap", len(d.keys), size)
	}

	// Growth: an add-heavy phase over a large pool, then a remove-heavy one.
	pool := make([]int64, 6000)
	for i := range pool {
		pool[i] = int64(rng.Intn(1<<20)) * 64
	}
	for phase, addBias := range []int{4, 1} {
		for op := 0; op < 40000; op++ {
			line := pool[rng.Intn(len(pool))]
			core := rng.Intn(MaxDirectoryCores)
			if rng.Intn(addBias+1) > 0 {
				add(line, core)
			} else if m := ref[line]; m != 0 && rng.Intn(2) == 0 {
				// Mostly remove a real sharer, so entries actually empty.
				remove(line, bits.TrailingZeros64(m))
			} else {
				remove(line, core)
			}
		}
		checkTable(t, d)
		agree(t, d, ref, pool, meshX)
		if phase == 0 && len(d.keys) < 8*dirInitSlots {
			t.Fatalf("table has %d slots after the add-heavy phase; want several growths", len(d.keys))
		}
	}

	// Snapshot → mutate → Restore, in place and into a fresh directory.
	snap := d.Snapshot()
	saved := make(map[int64]uint64, len(ref))
	for k, v := range ref {
		saved[k] = v
	}
	for op := 0; op < 5000; op++ {
		line := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			add(line, rng.Intn(MaxDirectoryCores))
		} else {
			remove(line, rng.Intn(MaxDirectoryCores))
		}
	}
	d.Restore(snap)
	checkTable(t, d)
	agree(t, d, saved, pool, meshX)
	fresh := NewDirectory()
	fresh.Restore(snap)
	checkTable(t, fresh)
	agree(t, fresh, saved, pool, meshX)
	// The restored copies are independent of each other and of the snapshot.
	fresh.Add(pool[0], 5)
	fresh.Remove(pool[1], bits.TrailingZeros64(saved[pool[1]]|1<<63))
	agree(t, d, saved, pool, meshX)
	d.Add(pool[2], 7)
	d.Remove(pool[3], bits.TrailingZeros64(saved[pool[3]]|1<<63))
	d.Restore(snap)
	agree(t, d, saved, pool, meshX)
}

// BenchmarkAccess is the steady-state lookup-and-fill of the private L2's
// 8 KB, 16-way geometry over random lines from a pool four times its
// capacity.
func BenchmarkAccess(b *testing.B) {
	c := New(8<<10, 64, 16)
	addrs := make([]int64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range addrs {
		addrs[i] = int64(rng.Intn(512)) * 64
	}
	for _, a := range addrs {
		c.Access(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}

// BenchmarkAccessL1 is the simulator's L1 (2 KB, 2-way, 64 B lines) under
// a strided string with reuse: a stencil that reads a[i] and a[i+1] and
// writes b[i] over 8-byte elements. Each line of a is read 16 times and
// each line of b written 8 times, so 22 of every 24 accesses hit (91.7%),
// near the 89.5% the simulated L1s hit on migrate-mix.
func BenchmarkAccessL1(b *testing.B) {
	const n = 1 << 12 // a power of two, so the loop masks instead of dividing
	c := New(2<<10, 64, 2)
	var addrs []int64
	for i := int64(0); len(addrs) < n; i++ {
		addrs = append(addrs, 8*i, 8*(i+1), 1<<20+8*i)
	}
	addrs = addrs[:n]
	for _, a := range addrs {
		c.Access(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(n-1)])
	}
}

// BenchmarkDirectory is one miss's directory work, as the simulator does it:
// find the nearest sharer, add the requester, and drop a line added long
// ago, so the resident set stays bounded.
func BenchmarkDirectory(b *testing.B) {
	const resident, meshX = 4096, 8
	rng := rand.New(rand.NewSource(1))
	lines := make([]int64, 1<<14)
	cores := make([]int, len(lines))
	for i := range lines {
		lines[i] = int64(rng.Intn(1<<16)) * 64
		cores[i] = rng.Intn(MaxDirectoryCores)
	}
	d := NewDirectory()
	op := func(i int) {
		k := i % len(lines)
		d.Owner(lines[k], cores[k], meshX)
		d.Add(lines[k], cores[k])
		if i >= resident {
			old := (i - resident) % len(lines)
			d.Remove(lines[old], cores[old])
		}
	}
	for i := 0; i < 2*len(lines); i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(2*len(lines) + i)
	}
}
