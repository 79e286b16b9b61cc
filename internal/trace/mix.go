package trace

import (
	"fmt"

	"offchip/internal/sim"
)

// ComposeMix builds a phase-changing multiprogrammed workload from the
// already-generated per-application workloads of a mix
// (workloads.MixSpec). Each application's streams are split at their phase
// (loop-nest) boundaries and re-emitted phase-major — all apps' phase-0
// slices first, then every phase-1 slice, and so on — with the slice of
// phase p bound to core (c + p·rotate) mod cores. The result is marked
// Sequential, so each core executes its slices as consecutive epochs: the
// run really is "phase 0 everywhere, then phase 1 everywhere", and because
// the binding rotates at each boundary, pages first-touched in phase 0 are
// hot from a different mesh region in phase 1 — the workload family where
// online migration can beat any static placement.
//
// The inputs are not mutated (they may come from the trace cache):
// per-phase slices alias the original access arrays read-only. Each entry
// keeps its own address space via AppID = entry index. A slice belonging
// to global phase p carries Phases = make([]int, p+1) — p leading zeros —
// so preTouch's global phase walk allocates its pages during pass p, after
// every earlier phase's first touches, exactly as the full run would.
func ComposeMix(name string, cores int, parts []*sim.Workload, rotates []int) (*sim.Workload, error) {
	if len(parts) != len(rotates) {
		return nil, fmt.Errorf("trace: mix has %d workloads but %d rotations", len(parts), len(rotates))
	}
	if cores <= 0 {
		return nil, fmt.Errorf("trace: mix over %d cores", cores)
	}
	maxPhases := 1
	for _, w := range parts {
		for i := range w.Streams {
			if n := len(w.Streams[i].Phases); n > maxPhases {
				maxPhases = n
			}
		}
	}
	out := &sim.Workload{Name: name, Sequential: true}
	for ph := 0; ph < maxPhases; ph++ {
		for app, w := range parts {
			for i := range w.Streams {
				st := &w.Streams[i]
				lo, hi := st.PhaseRange(ph)
				if lo == hi {
					continue
				}
				out.Streams = append(out.Streams, sim.Stream{
					Core:     (st.Core + ph*rotates[app]) % cores,
					AppID:    app,
					Accesses: st.Accesses[lo:hi:hi],
					Phases:   make([]int, ph+1),
				})
			}
		}
	}
	if len(out.Streams) == 0 {
		return nil, fmt.Errorf("trace: mix %s composed to an empty workload", name)
	}
	return out, nil
}
