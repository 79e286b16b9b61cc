package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offchip/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/sampled_outcomes.golden")

// sampledDigestSpecs is the sampled-job sweep the digest golden pins: every
// bundled application on each L2 organization × interleaving the layout
// pass accepts (shared L2 with page interleaving is rejected), as a
// default-sampled compare, a default-sampled baseline and an optimized job
// under a two-replicate spec with a half-length warmup.
func sampledDigestSpecs() []JobSpec {
	var specs []JobSpec
	for _, app := range workloads.All() {
		for _, l2 := range []string{"private", "shared"} {
			for _, il := range []string{"line", "page"} {
				if l2 == "shared" && il == "page" {
					continue
				}
				base := JobSpec{App: app.Name, L2: l2, Interleave: il, Cap: 600}
				compare, baseline, optimized := base, base, base
				compare.Mode, compare.Sample = ModeCompare, "on"
				baseline.Mode, baseline.Sample = ModeBaseline, "on"
				optimized.Mode, optimized.Sample = ModeOptimized, "w2f0.2u0.5r2"
				specs = append(specs, compare, baseline, optimized)
			}
		}
	}
	return specs
}

// TestSampledOutcomeDigests pins the canonical outcome of every sampled job
// in sampledDigestSpecs by SHA-256, so a change to the sampler that moves
// an estimate, a bound or an aggregated counter of any job fails here.
// Regenerate deliberately with:
//
//	go test ./internal/runner -run TestSampledOutcomeDigests -update
func TestSampledOutcomeDigests(t *testing.T) {
	specs := sampledDigestSpecs()
	res, err := Run(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(specs))
	for i, out := range res.Outcomes {
		raw, err := out.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		lines[i] = fmt.Sprintf("%s %s", out.ID, hex.EncodeToString(sum[:]))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "sampled_outcomes.golden")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d digests, golden has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("sampled outcome drifted:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
