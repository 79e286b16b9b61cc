package runner

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"offchip/internal/obs"
)

func TestJobIDRoundTrip(t *testing.T) {
	specs := []JobSpec{
		{App: "apsi"},
		{Mode: ModeBaseline, App: "swim", Interleave: "page", Cap: 100},
		{Mode: ModeOptimized, App: "mgrid", L2: "shared", Mapping: "m2", Placement: "perimeter", NumMCs: 8},
		{Mode: ModeAnalyze, App: "art", MeshX: 4, MeshY: 4, Threads: 32, BanksPerMC: 4, MLPWindow: 2},
		{App: "fma3d", Policy: "firsttouch", Seed: 77, Cap: 250},
	}
	for _, s := range specs {
		id := s.ID()
		got, err := ParseJobID(id)
		if err != nil {
			t.Fatalf("ParseJobID(%s): %v", id, err)
		}
		if got != s.Normalized() {
			t.Errorf("round trip of %s:\n got %+v\nwant %+v", id, got, s.Normalized())
		}
		if got.ID() != id {
			t.Errorf("re-rendered ID %s != %s", got.ID(), id)
		}
	}
	for _, bad := range []string{
		"",
		"v9:mode=compare",
		"j1:mode=compare",          // no app
		"j1:app=apsi,bogus=1",      // unknown field
		"j1:app=apsi,mesh=8",       // malformed mesh
		"j1:app=apsi,threads=many", // non-numeric
		"j1:app=apsi,seed=-1",      // negative seed
		"j1:app=apsi,mode",         // not k=v
	} {
		if _, err := ParseJobID(bad); err == nil {
			t.Errorf("ParseJobID(%q) accepted malformed ID", bad)
		}
	}
}

func TestShortIDStable(t *testing.T) {
	a := JobSpec{App: "apsi"}
	if a.ShortID() != (JobSpec{App: "apsi", Mode: ModeCompare}).ShortID() {
		t.Error("normalization changed the short ID")
	}
	if a.ShortID() == (JobSpec{App: "swim"}).ShortID() {
		t.Error("distinct jobs share a short ID")
	}
	if !strings.HasPrefix(a.ShortID(), "j-") || len(a.ShortID()) != 18 {
		t.Errorf("short ID %q has unexpected shape", a.ShortID())
	}
}

// testSpecs is a small heterogeneous sweep: every job mode, two apps, two
// layout schemes. Capped traces keep it fast enough for -race -count=2.
func testSpecs() []JobSpec {
	return []JobSpec{
		{Mode: ModeCompare, App: "apsi", Cap: 100},
		{Mode: ModeCompare, App: "gafort", Interleave: "page", Cap: 100},
		{Mode: ModeBaseline, App: "apsi", Interleave: "page", Cap: 100},
		{Mode: ModeOptimized, App: "gafort", Cap: 100},
		{Mode: ModeAnalyze, App: "swim"},
		{Mode: ModeCompare, App: "apsi", L2: "shared", Cap: 100, Seed: 42},
	}
}

// TestDeterminismParallelMatchesSequential is the runner's half of the
// differential gate: the same sweep run on 1 worker and on 8 workers must
// produce byte-identical canonical outcomes and identical registry
// snapshots for every job.
func TestDeterminismParallelMatchesSequential(t *testing.T) {
	specs := testSpecs()
	seq, err := Run(specs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(specs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.FirstError(); err != nil {
		t.Fatal(err)
	}
	if err := par.FirstError(); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		a, err := seq.Outcomes[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Outcomes[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("job %s: parallel outcome differs from sequential\nseq: %s\npar: %s",
				specs[i].ID(), a, b)
		}
		if !reflect.DeepEqual(runSnapshots(seq.Outcomes[i]), runSnapshots(par.Outcomes[i])) {
			t.Errorf("job %s: registry snapshots differ between 1 and 8 workers", specs[i].ID())
		}
	}
}

// runSnapshots returns each of the job's run registries as a snapshot taken
// at that run's end time, by run name.
func runSnapshots(o *JobOutcome) map[string][]obs.Point {
	out := map[string][]obs.Point{}
	for run, ob := range o.Observers {
		out[run] = ob.Reg.Snapshot(o.ExecTimes[run])
	}
	return out
}

// TestDeterminismReplayFromID re-runs single jobs from their canonical IDs
// and checks they reproduce the sweep's numbers bit-for-bit.
func TestDeterminismReplayFromID(t *testing.T) {
	specs := testSpecs()
	sweep, err := Run(specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		replayed, err := Replay(s.ID())
		if err != nil {
			t.Fatalf("replay %s: %v", s.ID(), err)
		}
		want, err := sweep.Outcomes[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayed.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("job %s: replay differs from sweep outcome", s.ID())
		}
	}
}

func TestRunKeepsInputOrder(t *testing.T) {
	// Analyze-only jobs are cheap, so a larger set keeps eight workers
	// racing on the shared job cursor; outcomes must land at their input
	// index anyway.
	var specs []JobSpec
	for _, app := range []string{"apsi", "swim", "mgrid", "art", "gafort"} {
		for _, threads := range []int{0, 16, 32, 64} {
			specs = append(specs, JobSpec{Mode: ModeAnalyze, App: app, Threads: threads})
		}
	}
	res, err := Run(specs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o == nil {
			t.Fatalf("outcome %d missing", i)
		}
		if o.ID != specs[i].ID() {
			t.Errorf("outcome %d holds job %s, want %s", i, o.ID, specs[i].ID())
		}
		if o.Analysis == nil {
			t.Errorf("outcome %d has no analysis result", i)
		}
	}
}

func TestRunEventsAndErrors(t *testing.T) {
	specs := []JobSpec{
		{Mode: ModeAnalyze, App: "apsi"},
		{Mode: ModeAnalyze, App: "no-such-app"},
		{Mode: Mode("bogus"), App: "apsi"},
	}
	var events int
	res, err := Run(specs, Options{Workers: 2, OnJob: func(ev JobEvent) {
		events++
		if ev.Total != len(specs) {
			t.Errorf("event total = %d", ev.Total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if events != len(specs) {
		t.Errorf("saw %d events, want %d", events, len(specs))
	}
	if res.Outcomes[0].Err != nil {
		t.Errorf("good job failed: %v", res.Outcomes[0].Err)
	}
	if res.Outcomes[1].Err == nil || res.Outcomes[2].Err == nil {
		t.Error("bad jobs reported no error")
	}
	if err := res.FirstError(); err == nil {
		t.Error("FirstError missed the failures")
	}
}

func TestRunRejectsDuplicateIDs(t *testing.T) {
	specs := []JobSpec{
		{App: "apsi"},
		{App: "apsi", Mode: ModeCompare, L2: "private"}, // normalizes identical
	}
	if _, err := Run(specs, Options{}); err == nil {
		t.Error("duplicate job IDs accepted")
	}
}
