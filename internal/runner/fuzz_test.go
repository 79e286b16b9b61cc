package runner

import (
	"reflect"
	"testing"
)

// FuzzParseJobID throws arbitrary strings at the canonical job-ID parser.
// The contract: ParseJobID never panics, and anything it accepts renders a
// canonical ID that is a fixed point — re-parsing yields the same normalized
// spec and the same ID bytes. That fixed point is what makes job IDs safe as
// -replay handles, as the entries of recorded job lists and bench pins, and
// as the key Run rejects duplicate jobs by.
func FuzzParseJobID(f *testing.F) {
	// Seed with real canonical IDs, including the sample= and trace-cache-era
	// variants, plus near-misses.
	seeds := []JobSpec{
		{App: "apsi"},
		{Mode: ModeBaseline, App: "swim", Interleave: "page", Cap: 100},
		{Mode: ModeAnalyze, App: "fma3d", Seed: 77},
		{App: "gafort", L2: "shared", Mapping: "m2", Placement: "diamond", MeshX: 4, MeshY: 4, NumMCs: 8},
		{App: "apsi", Sample: "on"},
		{App: "apsi", Sample: "w4f0.1u1r1", Threads: 16, BanksPerMC: 2, MLPWindow: 4},
		{App: "mgrid", Policy: "osassisted", Cap: -1},
	}
	for _, s := range seeds {
		f.Add(s.ID())
	}
	f.Add("j1:")
	f.Add("j1:mode=compare")
	f.Add("j1:app=apsi,mesh=8x8,sample=off")
	f.Add("j0:app=apsi")
	f.Add("j1:app=apsi,mesh=8x,cap=9999999999999999999999")
	f.Add("j1:app=a=b,pol=,seed=18446744073709551615")

	f.Fuzz(func(t *testing.T, id string) {
		spec, err := ParseJobID(id)
		if err != nil {
			return // rejected cleanly
		}
		canon := spec.ID()
		again, err := ParseJobID(canon)
		if err != nil {
			t.Fatalf("canonical ID %q of accepted input %q does not re-parse: %v", canon, id, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("re-parse of %q changed the spec:\n got %+v\nwant %+v", canon, again, spec)
		}
		if again.ID() != canon {
			t.Fatalf("ID is not a fixed point: %q -> %q", canon, again.ID())
		}
		// ShortID must be derived from the canonical ID alone.
		if again.ShortID() != spec.ShortID() {
			t.Fatalf("ShortID unstable for %q", canon)
		}
	})
}
