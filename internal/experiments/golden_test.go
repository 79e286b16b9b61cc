package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot files")

// goldenConfig is the fixed quick configuration the snapshots pin: two
// applications and short sampled traces, so the test stays fast while still
// exercising every substrate (caches, NoC, controllers) end to end.
func goldenConfig() Config {
	return Config{Apps: []string{"apsi", "gafort"}, MaxAccessesPerThread: 120}
}

// TestGoldenFigures pins the byte-exact text rendering of Figures 13, 15,
// and 18 for the seed configuration. The checked-in snapshots were generated
// with the original container/heap event queue; the simulator must keep
// producing identical bytes after any engine change (the timing-wheel
// scheduler's (time, seq) dispatch order is bit-compatible by design), so
// any drift here means the event kernel broke determinism somewhere.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	cfg := goldenConfig()
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig13", func() (string, error) {
			r, err := Fig13(cfg)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"fig15", func() (string, error) {
			r, err := Fig15(cfg)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"fig18", func() (string, error) {
			r, err := Fig18(cfg)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"figmig", func() (string, error) {
			r, err := FigMig(cfg)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		// figmix pins the PR's headline claim at FULL trace length (cap 0):
		// dynamic or hybrid migration beats the static compiler layout on at
		// least two of the three phase-changing mixes. Short traces would
		// close too few 4096-cycle windows for the tuned spec to ever fire,
		// so this is the one golden that runs uncapped; results are
		// bit-identical at any worker count, so it shards for wall-clock.
		{"figmix", func() (string, error) {
			r, err := FigMix(Config{Parallel: 8})
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"figtune", func() (string, error) {
			r, err := FigTune(Config{
				Apps: cfg.Apps, MaxAccessesPerThread: cfg.MaxAccessesPerThread, Parallel: 8,
			})
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, got)
		})
	}
}

// checkGolden compares got with testdata/<name>.golden, or rewrites that
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
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
		t.Fatalf("missing golden snapshot (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s rendering drifted from golden snapshot.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
