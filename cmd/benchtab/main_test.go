package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"offchip/internal/obs"
	"offchip/internal/plane"
	"offchip/internal/runner"
)

// TestMain lets the tests run benchtab itself: with BENCHTAB_TEST_MAIN set,
// the test binary is benchtab and takes its flags from the command line.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHTAB_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchtab runs the test binary as benchtab with args and returns its
// standard output and standard error.
func benchtab(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHTAB_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchtab %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), stderr.String()
}

// TestObservabilityOnAnExperiment runs -prof and -metrics on a figure
// experiment: the sweep-wide attribution is printed, the dump holds each of
// the job's runs under "<ShortID>/<run>", its manifest names the job, and
// the dump's bytes do not depend on the worker count.
func TestObservabilityOnAnExperiment(t *testing.T) {
	job := runner.JobSpec{App: "apsi", Cap: 200} // fig13 -apps apsi -quick
	dir := t.TempDir()
	var dumps [][]byte
	for _, workers := range []string{"1", "2"} {
		path := filepath.Join(dir, "w"+workers+".jsonl")
		out, _ := benchtab(t, "-exp", "fig13", "-apps", "apsi", "-quick", "-prof",
			"-metrics", path, "-parallel", workers)
		if !strings.Contains(out, "== sweep latency attribution (cycles/access, baseline vs optimized) ==") {
			t.Errorf("-parallel %s: no attribution table in\n%s", workers, out)
		}

		dump, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]int{}
		sc := bufio.NewScanner(bytes.NewReader(dump))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var p obs.Point
			if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
				t.Fatalf("-parallel %s: dump line %q: %v", workers, sc.Text(), err)
			}
			runs[p.Run]++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		for _, run := range []string{"baseline", "optimized", "optimal"} {
			if runs[job.ShortID()+"/"+run] == 0 {
				t.Errorf("-parallel %s: dump has no points of run %s/%s (has %v)", workers, job.ShortID(), run, runs)
			}
		}
		if len(runs) != 3 {
			t.Errorf("-parallel %s: dump holds %d runs, want 3: %v", workers, len(runs), runs)
		}

		raw, err := os.ReadFile(plane.ManifestPath(path))
		if err != nil {
			t.Fatal(err)
		}
		var m plane.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("-parallel %s: manifest: %v", workers, err)
		}
		if len(m.Jobs) != 1 || m.Jobs[0] != job.ID() || m.Config["parallel"] != workers || len(m.StageTotals) == 0 {
			t.Errorf("-parallel %s: manifest = %+v", workers, m)
		}
		dumps = append(dumps, dump)
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Error("-metrics dump differs between -parallel 1 and 2")
	}
}

// TestProfOnAVariantSuite: -prof prints the sweep-wide attribution for the
// figures that run every app on several machine variants (Figs. 17, 19,
// 20, 21 and 24), which fig19 stands for, and for Fig. 25's alone runs and
// co-run mixes.
func TestProfOnAVariantSuite(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig19", "-apps", "apsi", "-quick", "-prof"},
		{"-exp", "fig25", "-quick", "-prof"},
	} {
		out, _ := benchtab(t, args...)
		if !strings.Contains(out, "== sweep latency attribution (cycles/access, baseline vs optimized) ==") {
			t.Errorf("%s: no attribution table in\n%s", strings.Join(args, " "), out)
		}
	}
}

// TestServeAnswersHostProfiles: the -serve plane also serves Go's host
// profiles under /debug/pprof/ while the experiment runs.
func TestServeAnswersHostProfiles(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "fig16", "-apps", "apsi,swim", "-serve", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "BENCHTAB_TEST_MAIN=1")
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
			resp, err := http.Get(url + "/debug/pprof/cmdline")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "-serve") {
				t.Errorf("/debug/pprof/cmdline: status %d, %v, body %q", resp.StatusCode, err, body)
			}
			return
		}
	}
	t.Fatal("benchtab -serve printed no plane address")
}

// TestRetiredFlags: the run-registry dump is -metrics, as in offchip, so
// -sweep-out is an undefined flag.
func TestRetiredFlags(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "fig13", "-apps", "apsi", "-quick", "-sweep-out", filepath.Join(t.TempDir(), "s.jsonl"))
	cmd.Env = append(os.Environ(), "BENCHTAB_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -sweep-out") {
		t.Errorf("benchtab -sweep-out: err %v, output:\n%s", err, out)
	}
}
