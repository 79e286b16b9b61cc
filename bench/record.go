package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
)

// host names the machine a record was taken on; numbers from different
// hosts do not compare.
type host struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Revision   string `json:"revision"`
}

func thisHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

func hostRecord() string {
	h := thisHost()
	return fmt.Sprintf("host numcpu=%d gomaxprocs=%d go=%s revision=%s", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Revision)
}

// recordRun is one child run in a record. Unscaled holds an untraced
// run's host times before host-speed scaling and the median probe time.
type recordRun struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
	result
}

type record struct {
	Host    host        `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []recordRun `json:"runs"`
}

// recordAll runs every workload reps times, round-robin across workloads
// so a burst of host noise does not land on one workload, then one traced
// run per workload. Each run is a child process, one at a time.
func recordAll(path string, reps int, o runOptions) error {
	rec := record{Host: thisHost(), Seconds: o.seconds}
	run := func(w string, seed uint64, trace int) error {
		r, unscaled, err := child(w, seed, trace, o)
		if err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", w, seed, trace, err)
		}
		rec.Runs = append(rec.Runs, recordRun{Workload: w, Seed: seed, Trace: trace, Unscaled: unscaled, result: *r})
		fmt.Fprintf(os.Stderr, "%s seed %d trace %d: correct=%v attempted=%d failed=%d\n", w, seed, trace, r.Correct, r.Attempted, r.Failed)
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range benchWorkloads {
			if err := run(w.name, o.seed+uint64(rep), 0); err != nil {
				return err
			}
		}
	}
	for _, w := range benchWorkloads {
		if err := run(w.name, o.seed, 1); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// unscaledPrefix starts the output line that gives an untraced run's
// unscaled host times as a JSON object.
const unscaledPrefix = "unscaled "

// child runs this binary on one workload and parses its last output line
// and its unscaled times. The child's other output goes to standard error.
func child(w string, seed uint64, trace int, o runOptions) (*result, map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	os.Stderr.Write(out[:i+1])
	var r result
	if err := json.Unmarshal(out[i+1:], &r); err != nil {
		return nil, nil, fmt.Errorf("parse result line: %w", err)
	}
	var unscaled map[string]float64
	for _, line := range bytes.Split(out[:i+1], []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(unscaledPrefix)); ok {
			if err := json.Unmarshal(rest, &unscaled); err != nil {
				return nil, nil, fmt.Errorf("parse unscaled times: %w", err)
			}
		}
	}
	return &r, unscaled, nil
}
