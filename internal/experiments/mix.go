package experiments

import "offchip/internal/workloads"

// mixTunedMigrationSpec is the figtune winner for the phase-changing mixes:
// the default spec's window and threshold at single-page granularity. The
// g4 cluster default is what makes `-migrate on` safe on stationary
// full-trace workloads, but a phase rotation re-homes individual pages in
// different directions at once, and per-page moves chase it faster than
// whole-cluster ones — so the mix figure pins the per-page variant while
// everything else inherits the default.
const mixTunedMigrationSpec = "h16w4096c2f0t64"

// FigMix is FigMig's rematch on the workloads migration was built for:
// phase-changing multiprogrammed mixes (workloads.DefaultPhaseMixes), whose
// core rotations move every application's hot pages to a different mesh
// region at each loop-nest boundary. Any placement fixed before the run —
// the OS default, the compiler layout, first-touch — is right for at most
// one phase and wrong for the rest, so here the dynamic and hybrid schemes
// should beat the static compiler layout, inverting FigMig's stationary
// verdict. Columns are execution-time improvement over the page-interleaved
// round-robin baseline, plus the committed-remap counts of the migrating
// runs.
func FigMix(cfg Config) (*FigResult, error) {
	var names []string
	for _, mx := range workloads.DefaultPhaseMixes() {
		names = append(names, mx.String())
	}
	return migrationFigure(cfg, "figmix",
		"phase-changing mixes: static layouts vs. online migration (exec improvement over page-interleaved default)",
		mixTunedMigrationSpec, names, true)
}
