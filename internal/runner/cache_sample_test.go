package runner

// Differential no-change guarantees for the trace cache and the sampling
// knob: attaching a Cache must not move a single byte of any outcome, and a
// spec with no Sample renders exactly the historical job ID, so every
// recorded figure and replay handle stays valid.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"offchip/internal/tracecache"
)

// TestCacheDoesNotChangeOutcomes runs the heterogeneous sweep twice — cold,
// then with a shared in-process cache — and demands byte-identical canonical
// outcomes, plus evidence the cache was actually exercised.
func TestCacheDoesNotChangeOutcomes(t *testing.T) {
	// The heterogeneous sweep plus seed variants: the jitter seed is not a
	// trace input, so reseeded jobs must share cached streams.
	specs := append(testSpecs(),
		JobSpec{Mode: ModeCompare, App: "apsi", Cap: 100, Seed: 7},
		JobSpec{Mode: ModeBaseline, App: "gafort", Cap: 100, Seed: 9},
	)
	plain, err := Run(specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.FirstError(); err != nil {
		t.Fatal(err)
	}
	cache, err := tracecache.New("")
	if err != nil {
		t.Fatal(err)
	}
	cached := make([]JobSpec, len(specs))
	for i, s := range specs {
		s.Cache = cache
		cached[i] = s
	}
	withCache, err := Run(cached, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := withCache.FirstError(); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got, want := cached[i].ID(), specs[i].ID(); got != want {
			t.Errorf("cache changed job ID: %s != %s", got, want)
		}
		a, err := plain.Outcomes[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := withCache.Outcomes[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("job %s: cached outcome differs from uncached\nplain:  %s\ncached: %s",
				specs[i].ID(), a, b)
		}
	}
	st := cache.Stats()
	if st.Misses == 0 {
		t.Error("cache saw no generation at all")
	}
	// The sweep shares keys across jobs (two compare jobs on apsi/default,
	// and every compare's baseline stream doubles as its optimal input), so
	// there must be real sharing, not just pass-through.
	if st.Hits == 0 {
		t.Errorf("cache saw no hits across the sweep: %+v", st)
	}
}

// TestSampleAbsentFromHistoricalIDs: with no Sample, IDs render without a
// sample= field — bit-compatible with every ID recorded before sampling
// existed — and the Cache pointer never appears in identity at all.
func TestSampleAbsentFromHistoricalIDs(t *testing.T) {
	s := JobSpec{App: "apsi", Cap: 100}
	if id := s.ID(); strings.Contains(id, "sample") {
		t.Errorf("unsampled ID %q mentions sampling", id)
	}
	cache, err := tracecache.New("")
	if err != nil {
		t.Fatal(err)
	}
	withCache := s
	withCache.Cache = cache
	if withCache.ID() != s.ID() {
		t.Errorf("cache pointer leaked into the job ID: %s != %s", withCache.ID(), s.ID())
	}
	// "off" is the explicit spelling of no sampling; it normalizes away.
	off := s
	off.Sample = "off"
	if off.Normalized().Sample != "" || off.ID() != s.ID() {
		t.Errorf("Sample=off did not normalize to the historical ID: %s", off.ID())
	}
}

// TestSampleFieldRoundTrip: sampled IDs carry the canonical spec string and
// survive ParseJobID; malformed specs fail at Build with a clear error.
func TestSampleFieldRoundTrip(t *testing.T) {
	s := JobSpec{App: "apsi", Cap: 100, Sample: "on"}
	n := s.Normalized()
	if n.Sample != "w4f0.1u1r1" {
		t.Errorf("Sample=on normalized to %q", n.Sample)
	}
	id := s.ID()
	if !strings.Contains(id, "sample=w4f0.1u1r1") {
		t.Errorf("sampled ID %q lacks the canonical sample field", id)
	}
	got, err := ParseJobID(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, n)
	}
	if _, err := ParseJobID("j1:app=apsi,sample=bogus"); err == nil {
		t.Error("malformed sample spec accepted in an ID")
	}
	bad := JobSpec{App: "apsi", Sample: "wXf1u1r1"}
	if _, _, _, err := bad.Normalized().Build(); err == nil {
		t.Error("Build accepted an unparseable sample spec")
	}
}

// TestSampledJobOutcomes: a sampled compare carries three per-run sampled
// results; sampled baseline/optimized jobs surface the aggregate as Run and
// the extrapolated exec time as the merge horizon.
func TestSampledJobOutcomes(t *testing.T) {
	specs := []JobSpec{
		{Mode: ModeCompare, App: "apsi", Cap: 600, Sample: "on"},
		{Mode: ModeBaseline, App: "apsi", Cap: 600, Sample: "on"},
	}
	res, err := Run(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	cmp := res.Outcomes[0]
	for _, run := range []string{"baseline", "optimized", "optimal"} {
		sr := cmp.Sampled[run]
		if sr == nil {
			t.Fatalf("compare outcome lacks sampled result for %q", run)
		}
		if sr.Exact {
			t.Errorf("%s: cap 600 should sample, not cover", run)
		}
		if sr.Est.ExecTime.Mean <= 0 || sr.Est.ExecTime.Half <= 0 {
			t.Errorf("%s: degenerate exec bound %+v", run, sr.Est.ExecTime)
		}
	}
	if cmp.Comparison == nil || cmp.Comparison.Baseline.ExecTime <= 0 {
		t.Error("sampled compare produced no distilled metrics")
	}
	base := res.Outcomes[1]
	sr := base.Sampled["baseline"]
	if sr == nil || base.Run == nil {
		t.Fatal("sampled baseline outcome incomplete")
	}
	if base.Run != sr.Aggregate {
		t.Error("baseline Run is not the sampled aggregate")
	}
	if want := int64(sr.Est.ExecTime.Mean + 0.5); base.ExecTimes["baseline"] != want {
		t.Errorf("merge horizon %d, want extrapolated %d", base.ExecTimes["baseline"], want)
	}
}

// TestSampledSeveralAppsRefused: a sampled job whose workload runs several
// applications — a co-run mix, or a phase mix of more than one entry — fails
// with an error naming two of its app IDs, because every window would
// co-run applications the full run has already finished; a sample spec
// whose windows cover every stream runs it exactly instead, with the exact
// job's result. A one-entry phase mix is one application and samples.
func TestSampledSeveralAppsRefused(t *testing.T) {
	const want = "sampled simulation cannot estimate a run of several applications (apps 0 and 1)"
	for _, mix := range []string{"co2(swim+apsi)", "mix2(apsi@16+gafort@0)"} {
		exact := JobSpec{Mode: ModeBaseline, Mix: mix, Interleave: "page", Cap: 100}
		sampled, covering := exact, exact
		sampled.Sample, covering.Sample = "on", "w1f1u0r1"
		res, err := Run([]JobSpec{exact, sampled, covering}, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Outcomes[1].Err; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s sample=on: error %v, want one containing %q", mix, err, want)
		}
		ex, cov := res.Outcomes[0], res.Outcomes[2]
		if ex.Err != nil || cov.Err != nil {
			t.Fatalf("%s: exact error %v, covering error %v", mix, ex.Err, cov.Err)
		}
		if sr := cov.Sampled["baseline"]; sr == nil || !sr.Exact {
			t.Errorf("%s: covering spec did not run exactly", mix)
		}
		a, err := json.Marshal(ex.Run)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(cov.Run)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: covering spec's run differs from the exact job's", mix)
		}
	}
	one := JobSpec{Mode: ModeBaseline, Mix: "mix1(apsi@16)", Interleave: "page", Cap: 100, Sample: "on"}
	out := one.Execute()
	if out.Err != nil {
		t.Fatalf("one-entry mix: %v", out.Err)
	}
	if sr := out.Sampled["baseline"]; sr == nil || sr.Exact {
		t.Error("one-entry mix did not sample")
	}
}

// TestSampledReplayDeterminism: a sampled job replayed from its ID alone
// reproduces the sweep outcome byte for byte.
func TestSampledReplayDeterminism(t *testing.T) {
	spec := JobSpec{Mode: ModeCompare, App: "gafort", Cap: 600, Sample: "on"}
	res, err := Run([]JobSpec{spec}, Options{})
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
		t.Errorf("sampled replay differs from sweep:\nsweep:  %s\nreplay: %s", want, got)
	}
}

// TestSingleRunJobsFetchOneTrace: a ModeBaseline or ModeOptimized job, of
// one app or of a mix, builds only the trace its run replays, so on a fresh
// cache it makes one lookup per app entry (building both traces made two).
// The fig goldens (figmig's app jobs, figmix's and fig25's mix jobs) pin
// such jobs' outcomes.
func TestSingleRunJobsFetchOneTrace(t *testing.T) {
	for _, s := range []JobSpec{
		{Mode: ModeBaseline, App: "apsi", Interleave: "page", Cap: 200},
		{Mode: ModeOptimized, App: "apsi", Interleave: "page", Cap: 200},
		{Mode: ModeBaseline, Mix: "mix2(apsi@16+gafort@0)", Interleave: "page", Cap: 200},
		{Mode: ModeOptimized, Mix: "mix2(apsi@16+gafort@0)", Interleave: "page", Cap: 200},
	} {
		cache, err := tracecache.New("")
		if err != nil {
			t.Fatal(err)
		}
		s.Cache = cache
		if out := s.Execute(); out.Err != nil {
			t.Fatalf("%s: %v", s.ID(), out.Err)
		}
		entries := 1
		if s.Mix != "" {
			entries = 2
		}
		st := cache.Stats()
		if lookups := st.Hits + st.Misses; lookups != int64(entries) {
			t.Errorf("%s: %d trace lookups (%+v), want one per app entry (%d)", s.ID(), lookups, st, entries)
		}
	}
}
