package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"offchip/internal/runner"
)

// pinsFile holds, for every job of the pinned workloads at the full and
// the self-test trace length, the SHA-256 of the job's canonical output and
// the exact ExecTime of each of its runs. The exact times are also the
// reference the sampled-cold workload's estimates are scored against.
const pinsFile = "testdata/pins.json"

// selfTestCap is the per-thread access cap the self-test runs with.
const selfTestCap = 200

// pinCaps are the trace caps pins are recorded for: full traces (the
// benchmark) and the self-test's short traces.
var pinCaps = []int{0, selfTestCap}

type pin struct {
	SHA256 string           `json:"sha256"`
	Exec   map[string]int64 `json:"exec"`
}

// benchDir locates the benchmark's directory: bench/ under the checkout
// root, or the working directory when run from inside it (go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

func loadPins() (map[string]pin, error) {
	data, err := os.ReadFile(filepath.Join(benchDir(), pinsFile))
	if err != nil {
		return nil, fmt.Errorf("read pins: %w", err)
	}
	var pins map[string]pin
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("parse %s: %w", pinsFile, err)
	}
	return pins, nil
}

func canonicalSHA(out *runner.JobOutcome) (string, error) {
	b, err := out.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// exactID is the ID of the exact job a (possibly sampled) job estimates.
func exactID(s runner.JobSpec) string {
	s.Sample = ""
	return s.ID()
}

// writePins runs every pinned workload's jobs once at each pin cap and
// rewrites the pins file. Only a change that alters simulated results on
// purpose should run it.
func writePins() error {
	pins := map[string]pin{}
	for _, w := range benchWorkloads {
		if !w.pinned {
			continue
		}
		for _, cap := range pinCaps {
			jobs, _, err := setup(w, cap, nil)
			if err != nil {
				return err
			}
			specs := make([]runner.JobSpec, len(jobs))
			for i, j := range jobs {
				specs[i] = j.spec
			}
			res, err := runner.Run(specs, runner.Options{Workers: 1})
			if err != nil {
				return err
			}
			if err := res.FirstError(); err != nil {
				return err
			}
			for _, out := range res.Outcomes {
				sha, err := canonicalSHA(out)
				if err != nil {
					return err
				}
				pins[out.ID] = pin{SHA256: sha, Exec: out.ExecTimes}
			}
			fmt.Fprintf(os.Stderr, "pinned %s cap=%d: %d jobs\n", w.name, cap, len(res.Outcomes))
		}
	}
	buf, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir(), pinsFile), append(buf, '\n'), 0o644)
}
