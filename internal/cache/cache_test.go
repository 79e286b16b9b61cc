package cache

import (
	"fmt"
	"testing"
)

func TestHitAfterFill(t *testing.T) {
	c := New(1024, 64, 2)
	if hit, _ := c.Access(0); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.Access(32); !hit {
		t.Error("same-line access missed")
	}
	if hit, _ := c.Access(64); hit {
		t.Error("next-line access hit")
	}
	if c.Hits != 1 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways × 2 sets × 64B lines = 256B. Lines 0, 128, 256 share set 0.
	c := New(256, 64, 2)
	c.Access(0)
	c.Access(128)
	c.Access(0) // touch 0: now 128 is LRU
	hit, evicted := c.Access(256)
	if hit {
		t.Error("conflicting access hit")
	}
	if evicted != 128 {
		t.Errorf("evicted %d, want 128 (LRU)", evicted)
	}
	if !c.Contains(0) || c.Contains(128) || !c.Contains(256) {
		t.Error("post-eviction contents wrong")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(256, 64, 2)
	c.Access(0)
	hits, misses := c.Hits, c.Misses
	if c.Contains(4096) {
		t.Error("phantom line")
	}
	if c.Hits != hits || c.Misses != misses {
		t.Error("Contains changed stats")
	}
}

func TestLineAddr(t *testing.T) {
	c := New(1024, 64, 2)
	if got := c.LineAddr(130); got != 128 {
		t.Errorf("LineAddr(130) = %d", got)
	}
}

func TestEvictedSentinel(t *testing.T) {
	c := New(256, 64, 2)
	if _, ev := c.Access(0); ev != -1 {
		t.Errorf("cold fill evicted %d", ev)
	}
}

func TestDirectory(t *testing.T) {
	// Requester 0 on an 8-wide mesh: cores 3 and 5 sit 3 and 5 hops away.
	d := NewDirectory()
	if d.Owner(100, 0, 8) != -1 {
		t.Error("empty directory has owner")
	}
	d.Add(100, 5)
	d.Add(100, 3)
	if got := d.Owner(100, 0, 8); got != 3 {
		t.Errorf("owner = %d, want nearest sharer 3", got)
	}
	d.Remove(100, 3)
	if got := d.Owner(100, 0, 8); got != 5 {
		t.Errorf("owner after remove = %d", got)
	}
	d.Remove(100, 5)
	if d.Owner(100, 0, 8) != -1 || d.Entries() != 0 {
		t.Error("entry not cleaned up")
	}
	d.Remove(200, 1) // absent: no-op
	d.Remove(100, -1)
}

// TestDirectoryOwnerNearest is the regression test for the satellite fix:
// Owner must pick the sharer nearest the requester by mesh hop distance,
// not the lowest-numbered one, exclude the requester itself, and break
// distance ties toward the lower core ID.
func TestDirectoryOwnerNearest(t *testing.T) {
	const meshX = 8 // 8×8 mesh, row-major core IDs
	d := NewDirectory()
	d.Add(100, 0)  // node (0,0)
	d.Add(100, 63) // node (7,7)
	// Requester 62 = (6,7): core 63 is 1 hop away, core 0 is 13 hops.
	if got := d.Owner(100, 62, meshX); got != 63 {
		t.Errorf("owner for requester 62 = %d, want nearest sharer 63 (not lowest-numbered 0)", got)
	}
	// Requester 1 = (1,0): core 0 is the near one again.
	if got := d.Owner(100, 1, meshX); got != 0 {
		t.Errorf("owner for requester 1 = %d, want 0", got)
	}
	// The requester is never its own owner, even as the only sharer.
	d2 := NewDirectory()
	d2.Add(200, 5)
	if got := d2.Owner(200, 5, meshX); got != -1 {
		t.Errorf("requester offered itself as owner: %d", got)
	}
	// Distance ties break toward the lower core ID: requester 9 = (1,1) is
	// 1 hop from both 8 = (0,1) and 10 = (2,1).
	d3 := NewDirectory()
	d3.Add(300, 10)
	d3.Add(300, 8)
	if got := d3.Owner(300, 9, meshX); got != 8 {
		t.Errorf("tie broke to %d, want lower core ID 8", got)
	}
}

func TestDirectoryPanicsOutOfRange(t *testing.T) {
	d := NewDirectory()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core accepted")
		}
	}()
	d.Add(0, MaxDirectoryCores)
}

// TestGeometryPanics checks that New refuses a non-positive size and a
// capacity that is not a whole number of sets.
func TestGeometryPanics(t *testing.T) {
	for _, g := range []struct {
		capacity, lineBytes int64
		ways                int
		want                string
	}{
		{0, 64, 2, "cache: geometry 0B/64B/2-way: sizes must be positive"},
		{1024, 64, 0, "cache: geometry 1024B/64B/0-way: sizes must be positive"},
		{1000, 64, 16, "cache: geometry 1000B/64B/16-way: capacity is not a whole number of 1024B sets"},
		{3 << 10, 64, 16, ""}, // 3 sets: not a power of two, but whole
		{2 << 10, 64, 3, "cache: geometry 2048B/64B/3-way: capacity is not a whole number of 192B sets"},
	} {
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			New(g.capacity, g.lineBytes, g.ways)
			return ""
		}()
		if got != g.want {
			t.Errorf("New(%d, %d, %d) panicked with %q, want %q", g.capacity, g.lineBytes, g.ways, got, g.want)
		}
	}
}
