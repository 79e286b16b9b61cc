// Multiprogrammed mixes: several scaled applications on one machine, each
// in its own address space. A mix has two forms, each with a canonical
// compact string (embedded verbatim in job IDs, like mem.MigrationSpec):
//
//   - co-run, coN(app+app+...): every core time-shares one thread of each
//     application for the whole run (Figure 25's workloads);
//     internal/trace.Merge composes it.
//   - phase-changing, mixN(app@rotate+...): each application's thread→core
//     binding rotates at its phase (loop-nest) boundaries, so pages
//     first-touched from one corner of the mesh are re-touched from another
//     later in the run. The hot set genuinely moves, which no single
//     stationary application does, so this is the family that rewards
//     online page migration; internal/trace.ComposeMix composes it.
package workloads

import (
	"fmt"
	"strconv"
	"strings"
)

// MixEntry is one application of a mix.
type MixEntry struct {
	// App is the workload name (must resolve via ByName).
	App string
	// Rotate shifts the app's thread→core binding by this many cores at
	// every phase boundary: the thread bound to core c runs phase p on core
	// (c + p·Rotate) mod cores. 0 keeps the binding fixed (a stationary
	// participant, and every entry of a co-run mix).
	Rotate int
}

// MixSpec names a multiprogrammed mix. The canonical form is
// mixN(app@rotate+app@rotate+...) with N == len(Entries), e.g.
// "mix2(apsi@16+gafort@0)", or coN(app+app+...) for a co-run mix, e.g.
// "co2(swim+apsi)". Neither form contains a comma or an equals sign, so
// both embed verbatim as a job-ID field (mix=...).
type MixSpec struct {
	// CoRun marks the co-run form: the applications time-share every core
	// for the whole run, so entries do not rotate (their Rotate is 0 and
	// composition ignores it).
	CoRun   bool
	Entries []MixEntry
}

// String renders the canonical compact form. It round-trips through
// ParseMixSpec, so job IDs embed it verbatim.
func (s MixSpec) String() string {
	var b strings.Builder
	if s.CoRun {
		fmt.Fprintf(&b, "co%d(", len(s.Entries))
	} else {
		fmt.Fprintf(&b, "mix%d(", len(s.Entries))
	}
	for i, e := range s.Entries {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(e.App)
		if !s.CoRun {
			fmt.Fprintf(&b, "@%d", e.Rotate)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Validate rejects non-runnable mixes: unknown applications, negative
// rotations, or an empty entry list.
func (s MixSpec) Validate() error {
	if len(s.Entries) == 0 {
		return fmt.Errorf("workloads: mix has no entries")
	}
	for _, e := range s.Entries {
		if _, ok := ByName(e.App); !ok {
			return fmt.Errorf("workloads: mix names unknown application %q", e.App)
		}
		if e.Rotate < 0 {
			return fmt.Errorf("workloads: mix rotation %d for %s, want >= 0", e.Rotate, e.App)
		}
	}
	return nil
}

// Apps returns the mix's applications in entry order.
func (s MixSpec) Apps() []*App {
	out := make([]*App, len(s.Entries))
	for i, e := range s.Entries {
		out[i], _ = ByName(e.App)
	}
	return out
}

// ParseMixSpec parses the compact forms mixN(app@rotate+...) and
// coN(app+...). "" means no mix (nil). Like ParseMigrationSpec, only the
// canonical rendering is accepted — a spec whose numerals re-render
// differently ("@+16", "@016"), whose N disagrees with the entry count, or
// whose co-run entries carry a rotation ("co2(swim@0+apsi)") is rejected,
// because job IDs embed the string verbatim and -replay handles, recorded
// job lists and bench pins match them by ID bytes.
func ParseMixSpec(s string) (*MixSpec, error) {
	if s == "" {
		return nil, nil
	}
	var sp MixSpec
	rest, ok := strings.CutPrefix(s, "mix")
	if !ok {
		if rest, ok = strings.CutPrefix(s, "co"); !ok {
			return nil, fmt.Errorf("workloads: mix spec %q: want mixN(app@rotate+app@rotate+...) or coN(app+app+...)", s)
		}
		sp.CoRun = true
	}
	ns, rest, ok := strings.Cut(rest, "(")
	if !ok {
		return nil, fmt.Errorf("workloads: mix spec %q lacks the entry list", s)
	}
	body, ok := strings.CutSuffix(rest, ")")
	if !ok {
		return nil, fmt.Errorf("workloads: mix spec %q lacks the closing parenthesis", s)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return nil, fmt.Errorf("workloads: mix entry count %q: %w", ns, err)
	}
	for _, part := range strings.Split(body, "+") {
		if sp.CoRun {
			// A co-run entry is a bare application name; a stray "@0"
			// fails Validate as an unknown application.
			sp.Entries = append(sp.Entries, MixEntry{App: part})
			continue
		}
		app, rs, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("workloads: mix entry %q is not app@rotate", part)
		}
		rot, err := strconv.Atoi(rs)
		if err != nil {
			return nil, fmt.Errorf("workloads: mix rotation %q: %w", rs, err)
		}
		sp.Entries = append(sp.Entries, MixEntry{App: app, Rotate: rot})
	}
	if n != len(sp.Entries) {
		return nil, fmt.Errorf("workloads: mix spec %q declares %d entries but lists %d", s, n, len(sp.Entries))
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if canon := sp.String(); canon != s {
		return nil, fmt.Errorf("workloads: mix spec %q is not canonical (want %q): job IDs embed the spec verbatim, so only one spelling is accepted", s, canon)
	}
	return &sp, nil
}

// DefaultPhaseMixes are the phase-changing mixes the figmix and figtune
// experiments evaluate: pairs whose rotations move each app's hot pages a
// quarter- or half-mesh away at every loop-nest boundary, so first-touch
// and static compiler placement both go stale mid-run while migration
// adapts.
func DefaultPhaseMixes() []MixSpec {
	return []MixSpec{
		{Entries: []MixEntry{{App: "apsi", Rotate: 16}, {App: "gafort", Rotate: 16}}},
		{Entries: []MixEntry{{App: "swim", Rotate: 32}, {App: "mgrid", Rotate: 32}}},
		{Entries: []MixEntry{{App: "fma3d", Rotate: 16}, {App: "art", Rotate: 48}}},
	}
}
