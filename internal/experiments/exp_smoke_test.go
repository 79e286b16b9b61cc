package experiments

import "testing"

// quick config: short capped traces, 2 apps — a smoke test of the wiring.
func TestSmokeAllExperiments(t *testing.T) {
	cfg := Config{Apps: []string{"apsi", "gafort"}, MaxAccessesPerThread: 120}
	// TestGoldenFigures renders these through Run on the same jobs (the
	// same apps, cap and seed; figtune on more workers, which changes no
	// bit), so this test reads that rendering instead of running them twice.
	pinned := map[string]bool{"fig13": true, "fig15": true, "fig18": true, "figmig": true, "figtune": true}
	for _, id := range AllIDs() {
		t.Run(id, func(t *testing.T) {
			render := func() (string, error) { return Run(id, cfg) }
			if pinned[id] {
				render = func() (string, error) { return renderGolden(id) }
			}
			out, err := render()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				t.Fatal("empty output")
			}
		})
	}
}
