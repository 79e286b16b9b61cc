package dram

import (
	"testing"

	"offchip/internal/engine"
)

// frfcfsAddrs resolves the symbolic addresses the FR-FCFS table tests use:
// three distinct rows on bank 0 plus same-row aliases. The XOR-permuted
// bank function makes literal addresses unreadable, so the rows are found
// by probing.
func frfcfsAddrs(t *testing.T, cfg Config) map[string]int64 {
	t.Helper()
	var s engine.Sim
	probe := New(0, cfg, &s, nil)
	bank0, row0 := probe.bankOf(0)
	addrs := map[string]int64{
		"r0":  0,
		"r0b": 64,  // same row as r0, different column → row-buffer hit
		"r0c": 128, // ditto
	}
	var rows []int64
	for r := int64(1); r < 1<<14 && len(rows) < 2; r++ {
		a := r * cfg.RowBytes
		if b, row := probe.bankOf(a); b == bank0 && row != row0 {
			dup := false
			for _, seen := range rows {
				if _, sr := probe.bankOf(seen); sr == row {
					dup = true
				}
			}
			if !dup {
				rows = append(rows, a)
			}
		}
	}
	if len(rows) < 2 {
		t.Fatal("could not find two extra rows on bank 0")
	}
	addrs["r1"], addrs["r2"] = rows[0], rows[1]
	// A row on a different bank, for the independence case.
	for r := int64(0); r < 1<<14; r++ {
		a := r * cfg.RowBytes
		if b, _ := probe.bankOf(a); b != bank0 {
			addrs["otherbank"] = a
			break
		}
	}
	return addrs
}

// TestFRFCFSEdgeCases drives the controller through the scheduling corner
// cases as a table: row-hit priority over older misses, arrival-order ties
// within a priority class, bank-busy backpressure, single-request queues,
// and bank independence. Timings use DefaultConfig: hit 20, miss 40,
// conflict 60.
func TestFRFCFSEdgeCases(t *testing.T) {
	cfg := DefaultConfig()
	type req struct {
		at   int64
		addr string
	}
	cases := []struct {
		name          string
		reqs          []req
		wantFinish    []int64
		wantQueueWait int64
		wantRowHits   int64
	}{
		{
			// A lone request on a closed bank: one row miss, no queueing.
			name:          "single-request-queue",
			reqs:          []req{{0, "r0"}},
			wantFinish:    []int64{40},
			wantQueueWait: 0,
			wantRowHits:   0,
		},
		{
			// The younger row-hit (r0b, arrives t=2) jumps the older
			// conflicting request (r1, arrives t=1) once the bank frees.
			name:          "hit-beats-older-miss",
			reqs:          []req{{0, "r0"}, {1, "r1"}, {2, "r0b"}},
			wantFinish:    []int64{40, 120, 60},
			wantQueueWait: (40 - 2) + (60 - 1),
			wantRowHits:   1,
		},
		{
			// Every queued hit drains before the older conflict.
			name:          "hits-drain-first",
			reqs:          []req{{0, "r0"}, {1, "r1"}, {2, "r0b"}, {3, "r0c"}},
			wantFinish:    []int64{40, 140, 60, 80},
			wantQueueWait: (40 - 2) + (60 - 3) + (80 - 1),
			wantRowHits:   2,
		},
		{
			// No hits pending: equal-priority conflicts are served in
			// arrival order (the FCFS half of FR-FCFS).
			name:          "arrival-order-tie-conflicts",
			reqs:          []req{{0, "r0"}, {1, "r2"}, {2, "r1"}},
			wantFinish:    []int64{40, 100, 160},
			wantQueueWait: (40 - 1) + (100 - 2),
			wantRowHits:   0,
		},
		{
			// Same two conflicts, swapped arrival: the serve order swaps
			// with them — the tie really is broken by arrival, not address.
			name:          "arrival-order-tie-swapped",
			reqs:          []req{{0, "r0"}, {1, "r1"}, {2, "r2"}},
			wantFinish:    []int64{40, 100, 160},
			wantQueueWait: (40 - 1) + (100 - 2),
			wantRowHits:   0,
		},
		{
			// Bank-busy backpressure: a burst to one row serializes on the
			// single bank, each service starting exactly when the bank
			// frees, never sooner.
			name:          "bank-busy-backpressure",
			reqs:          []req{{0, "r0"}, {0, "r0b"}, {0, "r0c"}},
			wantFinish:    []int64{40, 60, 80},
			wantQueueWait: 40 + 60,
			wantRowHits:   2,
		},
		{
			// Requests to different banks do not backpressure each other.
			name:          "banks-independent",
			reqs:          []req{{0, "r0"}, {0, "otherbank"}},
			wantFinish:    []int64{40, 40},
			wantQueueWait: 0,
			wantRowHits:   0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := frfcfsAddrs(t, cfg)
			var s engine.Sim
			c := New(0, cfg, &s, nil)
			finishes := make([]int64, len(tc.reqs))
			for i, r := range tc.reqs {
				i, r := i, r
				at(&s, r.at, func() {
					submit(c, addrs[r.addr], func(f int64) { finishes[i] = f })
				})
			}
			s.Run()
			for i, want := range tc.wantFinish {
				if finishes[i] != want {
					t.Errorf("request %d (%s@%d) finished at %d, want %d",
						i, tc.reqs[i].addr, tc.reqs[i].at, finishes[i], want)
				}
			}
			if c.TotalQueueWait != tc.wantQueueWait {
				t.Errorf("total queue wait = %d, want %d", c.TotalQueueWait, tc.wantQueueWait)
			}
			if c.RowHits != tc.wantRowHits {
				t.Errorf("row hits = %d, want %d", c.RowHits, tc.wantRowHits)
			}
			if c.Served != int64(len(tc.reqs)) {
				t.Errorf("served = %d, want %d", c.Served, len(tc.reqs))
			}
		})
	}
}
