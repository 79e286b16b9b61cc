package sim

import "offchip/internal/mem"

// preTouchPerAccess is the page walk preTouch replaced, kept as its
// reference: the same phase-major order, with a translation for every
// access.
func (m *machine) preTouchPerAccess(w *Workload) {
	maxPhases := 1
	for i := range w.Streams {
		if n := len(w.Streams[i].Phases); n > maxPhases {
			maxPhases = n
		}
	}
	for ph := 0; ph < maxPhases; ph++ {
		for i := range w.Streams {
			st := &w.Streams[i]
			lo, hi := st.PhaseRange(ph)
			for _, acc := range st.Accesses[lo:hi] {
				m.spaces[st.AppID].Translate(acc.VAddr, st.Core, int(acc.DesiredMC))
			}
		}
	}
}

// PageTables gives w's applications their address spaces on cfg's machine,
// as a run does, and walks w through them before any timing: with preTouch,
// or with the per-access reference walk when reference is set. It returns
// the spaces by application ID (nil for an ID no stream uses).
func PageTables(cfg Config, w *Workload, reference bool) []*mem.AddressSpace {
	m := &machine{cfg: cfg, memCfg: memConfig(cfg.Machine)}
	m.addSpaces(w.Streams)
	if reference {
		m.preTouchPerAccess(w)
	} else {
		m.preTouch(w)
	}
	return m.spaces
}
