package plane_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"offchip/internal/plane"
	"offchip/internal/prof"
	"offchip/internal/runner"
)

// TestProfileSmoke is the `make profile-smoke` gate: a small three-way
// comparison with the profiler attached must (a) attribute every access's
// latency conservatively — the components sum exactly to the end-to-end
// latency the probes observed, with no internal violations and no
// unattributed retire residual — and (b) serve a parseable Prometheus
// exposition of the run's registries.
func TestProfileSmoke(t *testing.T) {
	spec := runner.JobSpec{Mode: runner.ModeCompare, App: "apsi", Cap: 2000, Prof: true}
	out := spec.Execute()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Profiles) != 3 {
		t.Fatalf("got %d profiles, want baseline/optimized/optimal", len(out.Profiles))
	}
	agg := &prof.Profile{}
	for run, p := range out.Profiles {
		if p.Accesses == 0 {
			t.Fatalf("%s: no accesses profiled", run)
		}
		if got, want := p.Attributed(), p.EndToEnd; got != want {
			t.Errorf("%s: attributed %d cycles != end-to-end %d (drift %d)",
				run, got, want, got-want)
		}
		if r := p.Comp[prof.CompRetire]; r != 0 {
			t.Errorf("%s: %d unattributed retire cycles", run, r)
		}
		if len(p.Violations) != 0 {
			t.Errorf("%s: profiler violations: %v", run, p.Violations)
		}
		if p.End.Total() != p.Accesses {
			t.Errorf("%s: end histogram total %d != accesses %d", run, p.End.Total(), p.Accesses)
		}
		agg.Add(p)
	}
	// Sweep aggregation keeps the invariant.
	if agg.Attributed() != agg.EndToEnd {
		t.Errorf("aggregated profile not conservative: %d != %d", agg.Attributed(), agg.EndToEnd)
	}

	// The differential table must exist for baseline vs optimized and close
	// with the 100% total row.
	diff := prof.DiffTable("smoke", out.Profiles["baseline"], out.Profiles["optimized"]).String()
	if !strings.Contains(diff, "end-to-end") || !strings.Contains(diff, "100.0%") {
		t.Errorf("differential table malformed:\n%s", diff)
	}

	// Live plane: serve the run registries and re-parse the exposition.
	live := plane.New(1)
	for run, o := range out.Observers {
		live.Record(run, o.Reg, out.ExecTimes[run])
	}
	srv, err := plane.NewServer("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	families, samples, err := plane.ParseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if families == 0 || samples == 0 {
		t.Fatalf("/metrics empty: families=%d samples=%d", families, samples)
	}
	if !strings.Contains(string(body), "offchip_prof_stage_cycles") {
		t.Error("/metrics missing the profiler's published stage cycles")
	}
}
