package main

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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

// TestShowPrintsAReasonWithoutAClosedForm: -show prints each optimized
// reference's closed form, or why it has none (hpccg's indexed SpMV
// gather), and the run goes on.
func TestShowPrintsAReasonWithoutAClosedForm(t *testing.T) {
	out, _ := offchip(t, "-app", "hpccg", "-sim=false", "-show")
	if !strings.Contains(out, "x[colidx[nz+8*row]]") || !strings.Contains(out, "-> (layout: no closed-form rewrite: indexed reference)") {
		t.Errorf("no reason line for the indexed gather in\n%s", out)
	}
}

// TestServeAnswersHostProfiles: the -serve plane is offchip's one listener,
// and it also serves Go's host profiles under /debug/pprof/.
func TestServeAnswersHostProfiles(t *testing.T) {
	body := serveGet(t, "/debug/pprof/cmdline", "-app", "fma3d", "-check", "-serve", "127.0.0.1:0")
	if !strings.Contains(body, "-serve") {
		t.Errorf("/debug/pprof/cmdline = %q, want offchip's command line", body)
	}
}

// serveGet starts offchip with args, which must include -serve, GETs path
// from its plane once it is bound, and returns the body after the run
// exits.
func serveGet(t *testing.T, path string, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OFFCHIP_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer io.Copy(io.Discard, stderr)
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, url, ok := strings.Cut(sc.Text(), "observability plane on "); ok {
			resp, err := http.Get(url + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
			}
			return string(body)
		}
	}
	t.Fatalf("offchip %s printed no plane address", strings.Join(args, " "))
	return ""
}

// TestRetiredFlags: -pprof is gone (the -serve plane serves /debug/pprof/)
// and so is -sample (sampled simulation is reachable only through a job
// ID's sample= field), so offchip rejects both as undefined flags.
func TestRetiredFlags(t *testing.T) {
	for _, args := range [][]string{{"-pprof", "127.0.0.1:0"}, {"-sample", "on"}} {
		cmd := exec.Command(os.Args[0], append([]string{"-app", "apsi"}, args...)...)
		cmd.Env = append(os.Environ(), "OFFCHIP_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Errorf("offchip %s: err %v, output:\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// TestTraceCacheDirRetired: a -trace-cache directory names the retired
// on-disk store, so offchip exits 1 with that error before it prints
// anything, and leaves nothing at the path.
func TestTraceCacheDirRetired(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "otc")
	cmd := exec.Command(os.Args[0], "-app", "apsi", "-trace-cache", dir)
	cmd.Env = append(os.Environ(), "OFFCHIP_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
		t.Errorf("offchip -trace-cache %s: exit %d (%v), want 1", dir, code, err)
	}
	if len(out) != 0 {
		t.Errorf("stdout not empty:\n%s", out)
	}
	if want := "offchip: tracecache: the on-disk trace store is retired"; !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to start with %q", stderr.String(), want)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("%s exists after the run (stat: %v)", dir, err)
	}
}
