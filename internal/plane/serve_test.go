package plane

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/runner"
)

func expositionFixture() map[string]*obs.Registry {
	r := obs.NewRegistry()
	r.Counter("sim", "accesses", "node=3").Add(42)
	r.TimeWeighted("dram", "queue_depth", "mc=0").Set(5, 7)
	h := r.Histogram("prof", "access_latency", obs.ExponentialBuckets(1, 2, 4))
	h.Observe(3)
	h.Observe(100)
	return map[string]*obs.Registry{"baseline": r}
}

func TestExpositionRoundTrip(t *testing.T) {
	var b strings.Builder
	WriteExposition(&b, expositionFixture())
	out := b.String()
	for _, want := range []string{
		"# TYPE offchip_sim_accesses counter",
		`offchip_sim_accesses{node="3",source="baseline"} 42`,
		"# TYPE offchip_dram_queue_depth gauge",
		`offchip_dram_queue_depth{mc="0",source="baseline"} 7`,
		"# TYPE offchip_prof_access_latency histogram",
		`le="+Inf"`,
		"offchip_prof_access_latency_sum",
		"offchip_prof_access_latency_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	families, samples, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	if families < 3 || samples < 5 {
		t.Fatalf("families=%d samples=%d, want >=3 and >=5", families, samples)
	}
	// Determinism: two renders are byte-identical.
	var b2 strings.Builder
	WriteExposition(&b2, expositionFixture())
	if out != b2.String() {
		t.Fatal("exposition output is not deterministic")
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"3invalid_name 1\n",
		"ok_name not-a-number\n",
		"unbalanced{le=\"1\" 3\n",
		"# TYPE bad_type florb\nx 1\n",
	} {
		if _, _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition accepted %q", bad)
		}
	}
}

func TestNewServerBadAddrFailsFast(t *testing.T) {
	if _, err := NewServer("256.0.0.1:bad", New(1)); err == nil {
		t.Fatal("bad listen address should fail at construction")
	}
}

func TestServerEndpoints(t *testing.T) {
	out := runner.JobSpec{Mode: runner.ModeOptimized, App: "apsi", Cap: 20, Prof: true}.Execute()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	run := out.Profiles["optimized"]
	p := New(1)
	p.Start(4)
	p.Record("run", out.Observers["optimized"].Reg, 0)
	p.Finish("j1", nil, map[string]*prof.Profile{"run": run})
	p.Finish("j2", nil, nil)

	s, err := NewServer("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	metrics := get("/metrics")
	families, samples, err := ParseExposition(strings.NewReader(string(metrics)))
	if err != nil || families == 0 || samples == 0 {
		t.Fatalf("/metrics invalid (families=%d samples=%d): %v", families, samples, err)
	}
	if !strings.Contains(string(metrics), "offchip_prof_stage_cycles") {
		t.Fatalf("/metrics missing published profiler counters:\n%s", metrics)
	}

	var prog Progress
	if err := json.Unmarshal(get("/progress"), &prog); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	if prog.DoneJobs != 2 || prog.TotalJobs != 4 || prog.InFlight != 1 || prog.ETASec <= 0 {
		t.Fatalf("/progress = %+v", prog)
	}

	var profiles map[string]prof.Summary
	if err := json.Unmarshal(get("/profile"), &profiles); err != nil {
		t.Fatalf("/profile: %v", err)
	}
	if got := profiles["run"]; got.Accesses != run.Accesses || got.Accesses == 0 || got.Attributed != got.EndToEnd {
		t.Fatalf("/profile = %+v", got)
	}

	if !strings.Contains(string(get("/")), "/metrics") {
		t.Fatal("index page should list the endpoints")
	}
	if !strings.Contains(string(get("/debug/pprof/")), "goroutine") {
		t.Fatal("/debug/pprof/ should index the host profiles")
	}
	get("/debug/pprof/cmdline")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestManifestWrite(t *testing.T) {
	m := NewManifest(time.Now())
	m.Seed = 7
	m.Config["apps"] = "apsi"
	m.Jobs = []string{"j1:mode=compare,app=apsi"}
	m.StageTotals = map[string]int64{"dram;service": 20}
	path := t.TempDir() + "/out.jsonl.manifest.json"
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != 7 || back.GitRev == "" || back.StageTotals["dram;service"] != 20 {
		t.Fatalf("manifest round-trip = %+v", back)
	}
	if ManifestPath("results.jsonl") != "results.jsonl.manifest.json" {
		t.Fatal("ManifestPath convention changed")
	}
}
