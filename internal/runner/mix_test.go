package runner

import (
	"bytes"
	"strings"
	"testing"
)

// mixSpecs is the mix half of testSpecs: phase-changing and co-run
// multiprogrammed jobs across the modes and migration variants a mix can
// run under. Capped traces keep it fast enough for -race -count=2.
func mixSpecs() []JobSpec {
	return []JobSpec{
		{Mode: ModeBaseline, Mix: "mix2(apsi@16+gafort@0)", Interleave: "page", Cap: 100},
		{Mode: ModeBaseline, Mix: "mix2(apsi@16+gafort@16)", Interleave: "page", Policy: "ftnearest", Cap: 100},
		{Mode: ModeOptimized, Mix: "mix2(swim@32+mgrid@32)", Interleave: "page", Cap: 100},
		{Mode: ModeBaseline, Mix: "mix2(apsi@16+gafort@16)", Interleave: "page", Policy: "ftnearest",
			Migrate: "h4w256c1f0t16", Cap: 400},
		{Mode: ModeOptimized, Mix: "mix2(fma3d@16+art@48)", Interleave: "page",
			Migrate: "h4w256c1f0t16g4", Cap: 400},
		{Mode: ModeBaseline, Mix: "co2(swim+apsi)", Cap: 100},
		{Mode: ModeOptimized, Mix: "co2(swim+apsi)", Cap: 100},
		{Mode: ModeOptimized, Mix: "co2(fma3d+apsi)", Interleave: "page", Migrate: "h4w256c1f0t16", Cap: 400},
	}
}

// TestMixDeterminismParallelMatchesSequential is the mix half of the
// differential gate: a sweep of phase-changing mix jobs — including
// migrating and cluster-migrating ones — run on 1 worker and on 8 workers
// must produce byte-identical canonical outcomes. Mix traces interleave
// several applications' generators, so this pins down that composition
// introduced no map-order or shared-state nondeterminism.
func TestMixDeterminismParallelMatchesSequential(t *testing.T) {
	specs := mixSpecs()
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
}

// TestMixJobIDRoundTrip: a mix job's canonical ID embeds the mix spec
// verbatim as a mix= field, parses back to an identical spec, and replays
// to the same bytes the sweep produced.
func TestMixJobIDRoundTrip(t *testing.T) {
	for _, s := range mixSpecs() {
		id := s.ID()
		if !strings.Contains(id, "mix="+s.Mix) {
			t.Errorf("ID %q does not embed mix=%s", id, s.Mix)
		}
		back, err := ParseJobID(id)
		if err != nil {
			t.Fatalf("ParseJobID(%q): %v", id, err)
		}
		if back.ID() != id {
			t.Errorf("ID round-trip drifted: %q -> %q", id, back.ID())
		}
		if back.Mix != s.Mix {
			t.Errorf("ID %q parsed mix %q, want %q", id, back.Mix, s.Mix)
		}
	}
}

// TestMixReplayDeterminism: one migrating mix job replayed from its ID alone
// reproduces the sweep's canonical bytes, the same contract single-app
// migrating jobs pin in TestMigrateReplayDeterminism.
func TestMixReplayDeterminism(t *testing.T) {
	spec := JobSpec{Mode: ModeBaseline, Mix: "mix2(apsi@16+gafort@16)", Interleave: "page",
		Policy: "ftnearest", Migrate: "h4w256c1f0t16g4", Cap: 400}
	res, err := Run([]JobSpec{spec}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Outcomes[0].CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("replay of %s differs from sweep outcome", spec.ID())
	}
}

// TestMixExclusiveWithApp: a job naming both an application and a mix is
// ambiguous and must be rejected, as must a mix job in a mode that needs a
// composed (optimized) counterpart it cannot have.
func TestMixExclusiveWithApp(t *testing.T) {
	bad := JobSpec{Mode: ModeBaseline, App: "apsi", Mix: "mix2(apsi@16+gafort@0)", Interleave: "page", Cap: 100}
	res, err := Run([]JobSpec{bad}, Options{Workers: 1})
	if err == nil {
		err = res.FirstError()
	}
	if err == nil {
		t.Fatal("job with both App and Mix ran")
	}
}
