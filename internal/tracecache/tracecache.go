// Package tracecache memoizes trace generation. A per-core virtual-address
// stream depends only on (program, profiled index contents, thread count,
// access cap, machine geometry, layout result) — not on the simulator
// configuration — so one generated workload can back every (seed, policy,
// bank count, MLP window) job that shares those inputs. The cache keys on a
// fingerprint of exactly those inputs and shares streams in-process through
// a keyed singleflight map: concurrent requesters of the same key block on
// one generation.
//
// Cached workloads are byte-identical to freshly generated ones; the cache
// is purely a wall-clock lever and never changes results.
//
// The cache does not use the delta-encoded OTC1 codec (encode.go); it is
// kept only for the bench module's trace_encode and trace_decode
// micro-benchmarks.
package tracecache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/trace"
)

// Key identifies one generated workload. All fields are comparable, so the
// in-process map keys on the struct itself.
type Key struct {
	Program string // program name
	Threads int    // effective thread count (defaults resolved)
	Cap     int    // effective per-thread access cap (-1: unlimited)

	// ProgFP covers the program text and the profiled index-array contents;
	// MachineFP the geometry trace generation reads (mesh, MCs, line/page
	// sizes, L2 and interleaving kinds); LayoutFP the layout result, probed
	// through its exported surface (Offset/DesiredMC at deterministic
	// pseudo-random coordinates) since the placement tables are unexported.
	ProgFP    uint64
	MachineFP uint64
	LayoutFP  uint64
}

// KeyOf computes the cache key for one trace.Generate call.
func KeyOf(p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, opt trace.Options) Key {
	threads := opt.Threads
	if threads <= 0 {
		threads = m.Cores()
	}
	cap := opt.MaxAccessesPerThread
	if cap <= 0 {
		cap = trace.Unlimited
	}
	return Key{
		Program:   p.Name,
		Threads:   threads,
		Cap:       cap,
		ProgFP:    fingerprintProgram(p, store),
		MachineFP: fingerprintMachine(m),
		LayoutFP:  fingerprintLayouts(p, res),
	}
}

// Stats counts cache traffic (atomically; safe to read mid-sweep).
type Stats struct {
	Hits   int64 // in-process hits (including singleflight waiters)
	Misses int64 // full generations
}

// Cache memoizes generated workloads. The zero value is not usable; New
// builds one. A nil *Cache is valid and means "no caching" — every method
// degrades to calling trace.Generate directly.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry

	hits, misses atomic.Int64
}

// entry is one singleflight slot: the first requester generates, everyone
// else blocks on ready.
type entry struct {
	ready chan struct{}
	w     *sim.Workload
	err   error
}

// New returns an in-process cache. Its parameter is the directory of the
// retired on-disk store: "" is the only value it accepts, and any other is
// an error, so a caller that asks for persistence never silently runs
// without it.
func New(dir string) (*Cache, error) {
	if dir != "" {
		return nil, fmt.Errorf("tracecache: the on-disk trace store is retired (asked for directory %q); use \"mem\" for the in-process cache", dir)
	}
	return &Cache{entries: map[Key]*entry{}}, nil
}

// Open interprets a -trace-cache flag value: "" is no cache (nil, which
// every method accepts) and "mem" an in-process cache. Any other value
// named a directory of the retired on-disk store and is New's error.
func Open(flag string) (*Cache, error) {
	switch flag {
	case "":
		return nil, nil
	case "mem":
		return New("")
	}
	return New(flag)
}

// Stats snapshots the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Generate returns the workload for the given inputs, generating it at most
// once per key per process. Every caller of a key gets the same workload,
// which must be treated as read-only, exactly like a workload shared
// between core.Compare's three runs.
func (c *Cache) Generate(p *ir.Program, res *layout.Result, m layout.Machine, store *ir.DataStore, opt trace.Options) (*sim.Workload, error) {
	if c == nil {
		return trace.Generate(p, res, m, store, opt)
	}
	key := KeyOf(p, res, m, store, opt)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		c.hits.Add(1)
		return e.w, nil
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.w, e.err = trace.Generate(p, res, m, store, opt)
	if e.err != nil {
		// Drop the failed slot so a later call can retry; waiters already
		// parked still see e.err.
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.ready)
	if e.err != nil {
		return nil, e.err
	}
	return e.w, nil
}

// fingerprintProgram hashes the program's printed form (which round-trips
// through the parser) plus the profiled contents of every array that has
// any — two workload versions that differ in source or profile data can
// never share an entry.
func fingerprintProgram(p *ir.Program, store *ir.DataStore) uint64 {
	h := newHasher()
	h.str(p.String())
	for _, arr := range p.Arrays {
		vals := store.Contents(arr)
		h.i64(int64(len(vals)))
		for _, v := range vals {
			h.i64(v)
		}
	}
	return h.sum()
}

// fingerprintMachine hashes the geometry trace generation reads.
func fingerprintMachine(m layout.Machine) uint64 {
	h := newHasher()
	h.i64(int64(m.MeshX))
	h.i64(int64(m.MeshY))
	h.i64(int64(m.NumMCs))
	h.i64(m.LineBytes)
	h.i64(m.LineUnit())
	h.i64(m.PageBytes)
	h.i64(int64(m.L2))
	h.i64(int64(m.Interleave))
	return h.sum()
}

// layoutProbes is the per-array probe count. Each probe hashes Offset and
// DesiredMC at a deterministic pseudo-random coordinate, so two layouts that
// differ anywhere a generated trace could observe them fingerprint apart
// with overwhelming probability.
const layoutProbes = 32

// fingerprintLayouts hashes the layout result through its exported surface.
func fingerprintLayouts(p *ir.Program, res *layout.Result) uint64 {
	h := newHasher()
	for _, arr := range p.Arrays {
		al := res.Layout(arr)
		h.str(arr.Name)
		for _, d := range arr.Dims {
			h.i64(d)
		}
		h.i64(arr.ElemSize)
		if al.Optimized {
			h.i64(1)
		} else {
			h.i64(0)
		}
		size := al.SizeBytes()
		h.i64(size)
		coord := make([]int64, len(arr.Dims))
		seed := fnv64str(arr.Name)
		for t := 0; t < layoutProbes; t++ {
			x := splitmix64(seed + uint64(t)*0x9e3779b97f4a7c15)
			for d, dim := range arr.Dims {
				x = splitmix64(x)
				if dim > 0 {
					coord[d] = int64(x % uint64(dim))
				} else {
					coord[d] = 0
				}
			}
			off := al.Offset(coord)
			h.i64(off)
			h.i64(int64(al.DesiredMC(off)))
			if size > 0 {
				h.i64(int64(al.DesiredMC(int64(x % uint64(size)))))
			}
		}
	}
	return h.sum()
}

// hasher is FNV-1a over a canonical byte rendering, inlined so fingerprints
// never depend on library changes (the same reason runner inlines fnv64).
type hasher struct{ h uint64 }

func newHasher() *hasher { return &hasher{h: 0xcbf29ce484222325} }

func (h *hasher) byte(b byte) {
	h.h ^= uint64(b)
	h.h *= 0x100000001b3
}

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *hasher) i64(v int64) { h.u64(uint64(v)) }

func (h *hasher) str(s string) {
	h.i64(int64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *hasher) sum() uint64 { return h.h }

func fnv64str(s string) uint64 {
	h := newHasher()
	h.str(s)
	return h.sum()
}

// splitmix64 decorrelates probe coordinates (same finalizer the runner uses
// for seed derivation).
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
