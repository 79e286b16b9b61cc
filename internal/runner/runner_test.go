package runner

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
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
// produce byte-identical canonical outcomes for every job and identical
// merged registry snapshots.
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
	}
	const horizon = int64(1) << 40 // past every job's ExecTime, so Avg is compared too
	if !reflect.DeepEqual(seq.Merged().Snapshot(horizon), par.Merged().Snapshot(horizon)) {
		t.Error("merged registry snapshots differ between 1 and 8 workers")
	}
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

func TestMergedScopesPerJob(t *testing.T) {
	specs := []JobSpec{
		{Mode: ModeBaseline, App: "apsi", Cap: 80},
		{Mode: ModeBaseline, App: "gafort", Cap: 80},
	}
	res, err := Run(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	m := res.Merged()
	for i, o := range res.Outcomes {
		var total int64
		for node := 0; node < 64; node++ {
			for mc := 0; mc < 4; mc++ {
				total += m.Counter("sim", "offchip_requests",
					"node="+itoa(node), "mc="+itoa(mc),
					"job="+o.ShortID, "run=baseline").Value()
			}
		}
		if total != o.Run.OffChip {
			t.Errorf("job %d: merged off-chip counters sum to %d, Result says %d",
				i, total, o.Run.OffChip)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
