package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"offchip/internal/core"
	"offchip/internal/prof"
	"offchip/internal/runner"
)

var update = flag.Bool("update", false, "rewrite the stdout golden files")

// TestMain lets the tests run offchip itself: with OFFCHIP_TEST_MAIN set,
// the test binary is offchip and takes its flags from the command line.
func TestMain(m *testing.M) {
	if os.Getenv("OFFCHIP_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// offchip runs the test binary as offchip with args and returns its
// standard output and standard error.
func offchip(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OFFCHIP_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("offchip %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), stderr.String()
}

// TestSeededRunReplaysFromItsJobID: a seeded -app run prints its job ID,
// and executing that job reproduces the run's execution times, so -seed
// means what a sweep job's seed means.
func TestSeededRunReplaysFromItsJobID(t *testing.T) {
	stdout, stderr := offchip(t, "-app", "apsi", "-seed", "7")
	var id string
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, "offchip: job "); ok {
			id = rest
		}
	}
	if id == "" {
		t.Fatalf("no job ID on stderr:\n%s", stderr)
	}
	spec, err := runner.ParseJobID(id)
	if err != nil {
		t.Fatal(err)
	}
	if spec.App != "apsi" || spec.Seed != 7 {
		t.Errorf("job %s is not apsi at seed 7", id)
	}
	out := spec.Execute()
	if out.Err != nil {
		t.Fatal(out.Err)
	}

	var printed []int64
	for _, line := range strings.Split(stdout, "\n") {
		if rest, ok := strings.CutPrefix(line, "execution time (cycles)"); ok {
			for _, f := range strings.Fields(rest)[:3] {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					t.Fatalf("execution-time row %q: %v", line, err)
				}
				printed = append(printed, v)
			}
		}
	}
	if len(printed) != 3 {
		t.Fatalf("no execution-time row in:\n%s", stdout)
	}
	for i, run := range []string{"baseline", "optimized", "optimal"} {
		if got := out.ExecTimes[run]; got != printed[i] {
			t.Errorf("%s: replayed job ran %d cycles, offchip printed %d", run, got, printed[i])
		}
	}
}

// TestStdoutGolden pins offchip's report byte for byte on a parsed program
// and on a page-interleaved, first-touch-nearest, migrating, checked run.
// Regenerate deliberately with:
//
//	go test ./cmd/offchip -run TestStdoutGolden -update
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"stencil", []string{"-src", "testdata/stencil.alc"}},
		{"apsi_page_ftnearest_migrate", []string{"-app", "apsi", "-interleave", "page", "-policy", "ftnearest", "-migrate", "on", "-check"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			got, _ := offchip(t, tc.args...)
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("offchip %s stdout drifted from %s:\n got:\n%s\nwant:\n%s", strings.Join(tc.args, " "), path, got, want)
			}
		})
	}
}

// TestServeProgressCountsTheJob reads /progress from the plane -serve
// starts: offchip's one job is in flight until the comparison returns, then
// done, and also failed when the comparison failed.
func TestServeProgressCountsTheJob(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      *core.Comparison
		err    error
		failed int
	}{
		{"ok", &core.Comparison{}, nil, 0},
		{"failed", nil, errors.New("simulation failed"), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := &livePlane{}
			srv, err := live.serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			get := func() prof.Progress {
				t.Helper()
				resp, err := http.Get("http://" + srv.Addr() + "/progress")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var p prof.Progress
				if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
					t.Fatal(err)
				}
				p.ElapsedSec, p.ETASec = 0, 0
				return p
			}

			if got, want := get(), (prof.Progress{TotalJobs: 1, InFlight: 1}); got != want {
				t.Errorf("during the run: /progress = %+v, want %+v", got, want)
			}
			live.finish(tc.c, tc.err)
			if got, want := get(), (prof.Progress{TotalJobs: 1, DoneJobs: 1, Failed: tc.failed}); got != want {
				t.Errorf("after the run: /progress = %+v, want %+v", got, want)
			}
		})
	}
}
