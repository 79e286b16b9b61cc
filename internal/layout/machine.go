// Package layout implements the paper's contribution: the compiler-guided
// data layout transformation that localizes off-chip accesses in an
// NoC-based manycore (Algorithm 1).
//
// The pass has two steps. Determining the Data-to-Core mapping (Section 5.2)
// finds, per array, a unimodular transformation U whose data-partitioning row
// gᵥ solves Bᵀ·gᵥ = 0 for the dominant submatrix B of the array's access
// matrices, so that parallel hyperplanes orthogonal to dimension v isolate
// the data of different threads. Layout customization (Section 5.3) then
// strip-mines and permutes the transformed space so that, under the
// hardware's physical-address interleaving, each cluster's off-chip requests
// are served by the memory controllers the user's L2-to-MC mapping assigns
// to it. The pass emits, per array, both the transformed reference form (for
// inspection, as in Figure 9(c)) and an exact virtual-address remapping used
// by the trace generator — a data transformation is "a kind of renaming".
package layout

import (
	"fmt"
)

// CacheKind selects the last-level cache organization of Figure 2.
type CacheKind int

const (
	// PrivateL2 gives each core its own L2; misses consult a centralized
	// tag directory cached at the data's memory controller (Figure 2a).
	PrivateL2 CacheKind = iota
	// SharedL2 manages all L2 banks as one shared SNUCA cache with
	// address-interleaved home banks (Figure 2b).
	SharedL2
)

func (k CacheKind) String() string {
	switch k {
	case PrivateL2:
		return "private-L2"
	case SharedL2:
		return "shared-L2"
	default:
		return fmt.Sprintf("CacheKind(%d)", int(k))
	}
}

// Granularity selects how physical addresses are interleaved across memory
// controllers (Section 3, Figure 5).
type Granularity int

const (
	// LineInterleave takes the MC-select bits right after the cache-line
	// offset: consecutive cache lines map to consecutive MCs. The bits are
	// unchanged by address translation, so the compiler alone can steer
	// data to MCs.
	LineInterleave Granularity = iota
	// PageInterleave takes the MC-select bits right after the page offset:
	// consecutive physical pages map to consecutive MCs. The OS page
	// allocation policy decides the bits, so the compiler needs OS help
	// (Section 5.3, "Page Interleaving").
	PageInterleave
)

func (g Granularity) String() string {
	switch g {
	case LineInterleave:
		return "cache-line"
	case PageInterleave:
		return "page"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Machine describes the target manycore as the pass sees it.
type Machine struct {
	MeshX, MeshY int   // mesh dimensions; MeshX·MeshY cores
	NumMCs       int   // number of memory controllers N'
	LineBytes    int64 // cache line size in bytes (L1/L2 tag granularity)
	// InterleaveBytes is the unit of cache-line-granularity interleaving
	// and of shared-L2 home-bank selection (Table 1: 256 B, the L2 line
	// size, while the caches track 64 B lines). Zero means LineBytes.
	InterleaveBytes int64
	PageBytes       int64       // OS page size in bytes
	L2              CacheKind   // last-level cache organization
	Interleave      Granularity // physical address interleaving granularity
}

// LineUnit returns the line-granularity interleaving unit in bytes.
func (m Machine) LineUnit() int64 {
	if m.InterleaveBytes > 0 {
		return m.InterleaveBytes
	}
	return m.LineBytes
}

// Default8x8 returns the paper's default configuration (Table 1): an 8×8
// mesh, 4 memory controllers, 64-byte cache lines (Table 1's L1 line size;
// L1 and L2 both track 64 B lines), a 256-byte unit of cache-line
// interleaving and shared-L2 home-bank selection (Table 1's L2 line size),
// 4 KB pages, and private L2s with cache-line interleaving.
func Default8x8() Machine {
	return Machine{
		MeshX:           8,
		MeshY:           8,
		NumMCs:          4,
		LineBytes:       64,
		InterleaveBytes: 256,
		PageBytes:       4096,
		L2:              PrivateL2,
		Interleave:      LineInterleave,
	}
}

// Cores returns the total core count.
func (m Machine) Cores() int { return m.MeshX * m.MeshY }

// UnitBytes returns the interleaving unit in bytes: the line size under
// cache-line interleaving, the page size under page interleaving.
func (m Machine) UnitBytes() int64 {
	if m.Interleave == PageInterleave {
		return m.PageBytes
	}
	return m.LineUnit()
}

// Validate checks the configuration for consistency.
func (m Machine) Validate() error {
	if m.MeshX <= 0 || m.MeshY <= 0 {
		return fmt.Errorf("layout: invalid mesh %dx%d", m.MeshX, m.MeshY)
	}
	if m.NumMCs <= 0 {
		return fmt.Errorf("layout: %d memory controllers", m.NumMCs)
	}
	if m.LineBytes <= 0 || m.PageBytes <= 0 {
		return fmt.Errorf("layout: line %dB page %dB", m.LineBytes, m.PageBytes)
	}
	if m.PageBytes%m.LineBytes != 0 {
		return fmt.Errorf("layout: page size %d not a multiple of line size %d", m.PageBytes, m.LineBytes)
	}
	if m.LineUnit()%m.LineBytes != 0 || m.PageBytes%m.LineUnit() != 0 {
		return fmt.Errorf("layout: interleave unit %d must divide page %d and be a multiple of line %d",
			m.LineUnit(), m.PageBytes, m.LineBytes)
	}
	if m.Cores()%m.NumMCs != 0 {
		return fmt.Errorf("layout: %d cores not divisible by %d MCs", m.Cores(), m.NumMCs)
	}
	return nil
}
