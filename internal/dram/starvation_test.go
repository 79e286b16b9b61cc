package dram

import (
	"testing"

	"offchip/internal/engine"
)

// serviceLog reads each completion's service record and tracks the worst
// bypass count — the quantity the invariant checker bounds on every run.
type serviceLog struct {
	serves     int
	maxBypass  int
	orderBreak bool // start before arrive, or finish before start
}

func (l *serviceLog) record(s Service, finish int64) {
	l.serves++
	if s.Bypassed > l.maxBypass {
		l.maxBypass = s.Bypassed
	}
	if s.Start < s.Arrive || finish < s.Start {
		l.orderBreak = true
	}
}

// TestFRFCFSStarvationBound drives the bounded hit-first bypass as a table:
// once the oldest pending request for a bank has been passed over
// StarveLimit times by younger row-buffer hits, the bank reverts to strict
// arrival order until the starved request is served. Each case pins the
// exact finish times, so a cap that is off by one shifts a whole tail of
// the schedule and fails loudly. Timings use DefaultConfig: hit 20,
// miss 40, conflict 60.
func TestFRFCFSStarvationBound(t *testing.T) {
	type req struct {
		at   int64
		addr string
	}
	// Shared shape: an opening miss to r0 (serves 0–40 and opens the row), a
	// conflicting request r1 at t=1, then a stream of row hits to r0 that
	// would starve r1 forever under unbounded FR-FCFS.
	openThenConflict := func(hits int) []req {
		reqs := []req{{0, "r0"}, {1, "r1"}}
		aliases := []string{"r0b", "r0c", "r0d", "r0e", "r0f"}
		for i := 0; i < hits; i++ {
			reqs = append(reqs, req{int64(2 + i), aliases[i]})
		}
		return reqs
	}
	cases := []struct {
		name          string
		limit         int // Config.StarveLimit (0 → DefaultStarveLimit)
		reqs          []req
		wantFinish    []int64
		wantRowHits   int64
		wantMaxBypass int
	}{
		{
			// Cap 2, five hits queued: exactly two hits jump r1, then the
			// bank serves r1 (conflict, closing its row against the
			// remaining hits), then drains in arrival order.
			name:          "cap-reverts-to-fcfs",
			limit:         2,
			reqs:          openThenConflict(5),
			wantFinish:    []int64{40, 140, 60, 80, 200, 220, 240},
			wantRowHits:   4, // two pre-cap hits + two re-opened-row hits at the tail
			wantMaxBypass: 2,
		},
		{
			// Cap 2, only two hits queued: the cap is reached but never
			// binds — both hits drain first, as plain FR-FCFS would.
			name:          "under-cap-hits-drain",
			limit:         2,
			reqs:          openThenConflict(2),
			wantFinish:    []int64{40, 140, 60, 80},
			wantRowHits:   2,
			wantMaxBypass: 2,
		},
		{
			// Cap 1 is the tightest legal bound: one hit jumps, then strict
			// arrival order.
			name:          "cap-one",
			limit:         1,
			reqs:          openThenConflict(5),
			wantFinish:    []int64{40, 120, 60, 180, 200, 220, 240},
			wantRowHits:   4,
			wantMaxBypass: 1,
		},
		{
			// Default cap (8) with a five-hit stream: the cap never binds,
			// so the schedule is identical to unbounded FR-FCFS — the edge
			// cases in TestFRFCFSEdgeCases are unaffected by the bound.
			name:          "default-cap-never-binds",
			limit:         0,
			reqs:          openThenConflict(5),
			wantFinish:    []int64{40, 200, 60, 80, 100, 120, 140},
			wantRowHits:   5,
			wantMaxBypass: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.StarveLimit = tc.limit
			addrs := frfcfsAddrs(t, cfg)
			// Extra same-row aliases for the longer hit streams (RowBytes is
			// 4096, so these stay in r0's row).
			addrs["r0d"], addrs["r0e"], addrs["r0f"] = 192, 256, 320
			var s engine.Sim
			c := New(0, cfg, &s, nil)
			probe := &serviceLog{}
			finishes := make([]int64, len(tc.reqs))
			for i, r := range tc.reqs {
				i, r := i, r
				at(&s, r.at, func() {
					submit(c, addrs[r.addr], func(f int64) {
						finishes[i] = f
						probe.record(c.LastService(), f)
					})
				})
			}
			s.Run()
			for i, want := range tc.wantFinish {
				if finishes[i] != want {
					t.Errorf("request %d (%s@%d) finished at %d, want %d",
						i, tc.reqs[i].addr, tc.reqs[i].at, finishes[i], want)
				}
			}
			if c.RowHits != tc.wantRowHits {
				t.Errorf("row hits = %d, want %d", c.RowHits, tc.wantRowHits)
			}
			if probe.maxBypass != tc.wantMaxBypass {
				t.Errorf("max bypass = %d, want %d", probe.maxBypass, tc.wantMaxBypass)
			}
			if limit := EffectiveStarveLimit(cfg); probe.maxBypass > limit {
				t.Errorf("starvation bound violated: bypassed %d > limit %d", probe.maxBypass, limit)
			}
			if c.Submitted != int64(len(tc.reqs)) || probe.serves != len(tc.reqs) {
				t.Errorf("%d submitted, %d served, want %d of each",
					c.Submitted, probe.serves, len(tc.reqs))
			}
			if probe.orderBreak {
				t.Error("probe saw a service interval out of order (start<arrive or finish<start)")
			}
		})
	}
}
