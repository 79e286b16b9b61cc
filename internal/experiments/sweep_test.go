package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"offchip/internal/obs"
	"offchip/internal/runner"
	"offchip/internal/stats"
)

// TestExampleSweepGoldenJobList pins the enumerated job list: stable,
// sorted, no map iteration anywhere. If this golden list changes, replay
// IDs recorded from earlier sweeps stop resolving — treat that as a
// breaking change, not a test to update casually.
func TestExampleSweepGoldenJobList(t *testing.T) {
	cfg := Config{Apps: []string{"apsi", "gafort"}, MaxAccessesPerThread: 150}
	specs, err := cfg.ExampleSweep()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"j1:mode=compare,app=apsi,l2=private,il=line,map=m1,place=corners,mesh=8x8,mcs=4,threads=0,banks=0,mlp=0,pol=interleaved,cap=150,seed=0",
		"j1:mode=compare,app=apsi,l2=private,il=page,map=m1,place=corners,mesh=8x8,mcs=4,threads=0,banks=0,mlp=0,pol=interleaved,cap=150,seed=0",
		"j1:mode=compare,app=apsi,l2=shared,il=line,map=m1,place=corners,mesh=8x8,mcs=4,threads=0,banks=0,mlp=0,pol=interleaved,cap=150,seed=0",
		"j1:mode=compare,app=gafort,l2=private,il=line,map=m1,place=corners,mesh=8x8,mcs=4,threads=0,banks=0,mlp=0,pol=interleaved,cap=150,seed=0",
		"j1:mode=compare,app=gafort,l2=private,il=page,map=m1,place=corners,mesh=8x8,mcs=4,threads=0,banks=0,mlp=0,pol=interleaved,cap=150,seed=0",
		"j1:mode=compare,app=gafort,l2=shared,il=line,map=m1,place=corners,mesh=8x8,mcs=4,threads=0,banks=0,mlp=0,pol=interleaved,cap=150,seed=0",
	}
	if len(specs) != len(want) {
		t.Fatalf("enumerated %d jobs, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.ID() != want[i] {
			t.Errorf("job %d:\n got %s\nwant %s", i, s.ID(), want[i])
		}
	}
	// Enumeration must be reproducible call-to-call.
	again, err := cfg.ExampleSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Error("two enumerations of the same config differ")
	}
}

// TestExampleSweepGoldenTable pins the numbers of one small example sweep:
// apsi under the three sweepSchemes at 100 accesses per thread, on two
// workers, as the app, scheme and three headline improvements.
func TestExampleSweepGoldenTable(t *testing.T) {
	res, err := RunSweep(Config{Apps: []string{"apsi"}, MaxAccessesPerThread: 100, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	table := &stats.Table{
		Title:   "example sweep: app × layout scheme",
		Headers: []string{"app", "scheme", "exec%", "mem%", "offchip-net%"},
	}
	for i, o := range res.Result.Outcomes {
		c := o.Comparison
		table.AddF(o.Spec.App, sweepSchemes[i%len(sweepSchemes)].name,
			100*c.ExecImprovement(), 100*c.MemImprovement(), 100*c.OffChipNetImprovement())
	}
	checkGolden(t, "example_sweep", table.String())
}

// TestDeterminismSweepParallelMatchesSequential is the differential gate at
// the experiments layer: the full example sweep run sequentially and with
// eight workers must agree byte-for-byte — every job's canonical outcome
// and every job's registry snapshots alike. Table-driven over worker counts
// so the boundary cases (more workers than jobs) ride along.
func TestDeterminismSweepParallelMatchesSequential(t *testing.T) {
	cfg := Config{Apps: []string{"apsi", "gafort"}, MaxAccessesPerThread: 120}
	ref, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := make([][]byte, len(ref.Result.Outcomes))
	for i, o := range ref.Result.Outcomes {
		if refJSON[i], err = o.CanonicalJSON(); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"parallel-2", 2},
		{"parallel-8", 8},
		{"parallel-32-more-workers-than-jobs", 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Parallel = tc.workers
			got, err := RunSweep(c)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range got.Result.Outcomes {
				j, err := o.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(j, refJSON[i]) {
					t.Errorf("job %s: %d-worker outcome differs from sequential", o.ID, tc.workers)
				}
				if !reflect.DeepEqual(runSnapshots(o), runSnapshots(ref.Result.Outcomes[i])) {
					t.Errorf("job %s: %d-worker registry snapshots differ from sequential", o.ID, tc.workers)
				}
			}
		})
	}
}

// runSnapshots returns each of the job's run registries as a snapshot taken
// at that run's end time, by run name.
func runSnapshots(o *runner.JobOutcome) map[string][]obs.Point {
	out := map[string][]obs.Point{}
	for run, ob := range o.Observers {
		out[run] = ob.Reg.Snapshot(o.ExecTimes[run])
	}
	return out
}

// TestDeterminismFiguresUnderParallelism pins the user-visible contract:
// the rendered figure tables are identical at any worker count.
func TestDeterminismFiguresUnderParallelism(t *testing.T) {
	cfg := Config{Apps: []string{"apsi", "gafort"}, MaxAccessesPerThread: 120}
	for _, id := range []string{"fig13", "fig15", "fig18"} {
		seq, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		pcfg := cfg
		pcfg.Parallel = 8
		par, err := Run(id, pcfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if seq != par {
			t.Errorf("%s: rendered table differs between 1 and 8 workers:\n%s\nvs\n%s", id, seq, par)
		}
	}
}

// TestSweepSeedDecorrelatesJobs checks that a non-zero sweep seed gives
// each job its own jitter stream while staying reproducible.
func TestSweepSeedDecorrelatesJobs(t *testing.T) {
	specA := runner.JobSpec{App: "apsi", Cap: 120, Seed: 7}
	specB := runner.JobSpec{App: "apsi", Cap: 120, Seed: 7, Interleave: "page"}
	if specA.ID() == specB.ID() {
		t.Fatal("distinct jobs share an ID")
	}
	a1, err := runner.Replay(specA.ID())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := runner.Replay(specA.ID())
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := a1.CanonicalJSON()
	j2, _ := a2.CanonicalJSON()
	if !bytes.Equal(j1, j2) {
		t.Error("seeded replay is not reproducible")
	}
}

func TestSweepTableMentionsEveryJob(t *testing.T) {
	cfg := Config{Apps: []string{"apsi"}, MaxAccessesPerThread: 120, Parallel: 4}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	for _, o := range res.Result.Outcomes {
		if !contains(tbl, o.ShortID) {
			t.Errorf("sweep table lacks job %s", o.ShortID)
		}
	}
	// The Figure 18 quantity is positive for at least the optimized run of
	// some job.
	var any float64
	for _, o := range res.Result.Outcomes {
		any += o.Comparison.Optimized.AvgQueueOcc
	}
	if any <= 0 {
		t.Error("queue occupancy is zero across the whole sweep")
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}
