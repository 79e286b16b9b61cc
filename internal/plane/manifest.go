package plane

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Manifest is the provenance record written next to every metrics dump:
// what ran, with which configuration and seed, from which source revision,
// how long it took, and where the cycles went. A figure regenerated months
// later can be traced back to the exact run that produced it.
type Manifest struct {
	Command     string            `json:"command"`
	Args        []string          `json:"args,omitempty"`
	Config      map[string]string `json:"config,omitempty"`
	Seed        uint64            `json:"seed"`
	GitRev      string            `json:"git_rev"`
	StartedAt   string            `json:"started_at"`
	WallSeconds float64           `json:"wall_seconds"`
	Jobs        []string          `json:"jobs,omitempty"` // canonical job IDs
	StageTotals map[string]int64  `json:"stage_totals,omitempty"`

	start time.Time
}

// NewManifest returns a manifest for the current process, which started
// its run at start: the command line and git revision are captured now
// (the revision forks git, so create a manifest only to write it); the
// caller fills config, jobs, and stage totals and calls Write.
func NewManifest(start time.Time) *Manifest {
	m := &Manifest{
		GitRev:    GitRev(),
		StartedAt: start.UTC().Format(time.RFC3339),
		Config:    map[string]string{},
		start:     start,
	}
	if len(os.Args) > 0 {
		m.Command = os.Args[0]
		m.Args = os.Args[1:]
	}
	return m
}

// GitRev returns the working tree's HEAD revision, best-effort: "unknown"
// when git or the repository is unavailable (provenance must never fail a
// run).
func GitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Write serializes the manifest as indented JSON at path, stamping the
// wall time since the run started.
func (m *Manifest) Write(path string) error {
	m.WallSeconds = time.Since(m.start).Seconds()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ManifestPath returns the conventional manifest location next to an
// output file: "<out>.manifest.json".
func ManifestPath(out string) string { return out + ".manifest.json" }
