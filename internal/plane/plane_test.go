package plane_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"offchip/internal/obs"
	"offchip/internal/plane"
	"offchip/internal/prof"
	"offchip/internal/runner"
)

// get fetches path from the server and returns its body, failing the test
// on any status but 200.
func get(t *testing.T, srv *plane.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	return body
}

// progress reads /progress without its wall-clock fields.
func progress(t *testing.T, srv *plane.Server) plane.Progress {
	t.Helper()
	var p plane.Progress
	if err := json.Unmarshal(get(t, srv, "/progress"), &p); err != nil {
		t.Fatal(err)
	}
	p.ElapsedSec, p.ETASec = 0, 0
	return p
}

// TestServeProgressCountsTheJob reads /progress from a one-job plane, as
// offchip keeps it: the job is in flight until it finishes, then done, and
// also failed when it failed.
func TestServeProgressCountsTheJob(t *testing.T) {
	for _, tc := range []struct {
		name   string
		err    error
		failed int
	}{
		{"ok", nil, 0},
		{"failed", errors.New("simulation failed"), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := plane.New(1)
			live.Start(1)
			srv, err := plane.NewServer("127.0.0.1:0", live)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			if got, want := progress(t, srv), (plane.Progress{TotalJobs: 1, InFlight: 1}); got != want {
				t.Errorf("during the run: /progress = %+v, want %+v", got, want)
			}
			live.Finish("", tc.err, nil)
			if got, want := progress(t, srv), (plane.Progress{TotalJobs: 1, DoneJobs: 1, Failed: tc.failed}); got != want {
				t.Errorf("after the run: /progress = %+v, want %+v", got, want)
			}
		})
	}
}

// TestRecorderRecordsEachJobOnce feeds the plane two sweeps of the same jobs
// on two workers, the way benchtab does, while another goroutine reads it
// through the server: each job and its runs are recorded once, its profiles
// are summed once, /profile serves copies of the sums, and /progress counts
// both sweeps.
func TestRecorderRecordsEachJobOnce(t *testing.T) {
	specs := []runner.JobSpec{
		{App: "apsi", Cap: 80, Prof: true},
		{Mode: runner.ModeOptimized, App: "gafort", Cap: 80, Prof: true},
	}
	live := plane.New(2)
	srv, err := plane.NewServer("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				for _, path := range []string{"/metrics", "/progress", "/profile"} {
					if resp, err := http.Get("http://" + srv.Addr() + path); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-read
	}()

	observe := func(ev runner.JobEvent) {
		if ev.Done == 1 {
			live.Start(ev.Total)
		}
		o := ev.Outcome
		if live.Finish(o.ID, o.Err, o.Profiles) {
			for run, ob := range o.Observers {
				live.Record(o.ShortID+"/"+run, ob.Reg, o.ExecTimes[run])
			}
		}
	}
	var once *runner.Result
	for pass := 0; pass < 2; pass++ {
		res, err := runner.Run(specs, runner.Options{Workers: 2, OnJob: observe})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			once = res
			// Profiles hands out copies: growing one leaves the sum alone.
			live.Profiles()["optimized"].Add(res.Outcomes[0].Profiles["optimized"])
		}
	}

	var want int64
	for _, o := range once.Outcomes {
		want += o.Profiles["optimized"].Accesses
	}
	if got := live.Profiles()["optimized"].Accesses; got != want {
		t.Errorf("optimized profile sums %d accesses, want one pass's %d", got, want)
	}
	var served map[string]prof.Summary
	if err := json.Unmarshal(get(t, srv, "/profile"), &served); err != nil {
		t.Fatal(err)
	}
	if got := served["optimized"].Accesses; got != want {
		t.Errorf("/profile serves %d optimized accesses, want %d", got, want)
	}
	if got, want := progress(t, srv), (plane.Progress{TotalJobs: 4, DoneJobs: 4}); got != want {
		t.Errorf("/progress = %+v, want %+v", got, want)
	}

	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := live.WriteMetrics(path, plane.NewManifest(time.Now())); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(dump)), "\n") {
		var p obs.Point
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatal(err)
		}
		runs[p.Run] = true
	}
	if len(runs) != 4 {
		t.Errorf("dump holds %d job runs, want 4 (three compare runs, one optimized): %v", len(runs), runs)
	}
	raw, err := os.ReadFile(plane.ManifestPath(path))
	if err != nil {
		t.Fatal(err)
	}
	var m plane.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != len(specs) || len(m.StageTotals) == 0 {
		t.Errorf("manifest names jobs %v with stage totals %v, want each of the %d jobs once", m.Jobs, m.StageTotals, len(specs))
	}
}
