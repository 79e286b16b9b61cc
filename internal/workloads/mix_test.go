package workloads

import (
	"strings"
	"testing"
)

func TestParseMixSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    string // canonical form of the parsed spec ("" for nil)
		wantErr bool
	}{
		{in: "", want: ""},
		{in: "mix2(apsi@16+gafort@0)", want: "mix2(apsi@16+gafort@0)"},
		{in: "mix1(swim@0)", want: "mix1(swim@0)"},
		{in: "mix3(fma3d@16+art@48+ammp@0)", want: "mix3(fma3d@16+art@48+ammp@0)"},
		{in: "apsi@16", wantErr: true},                 // no mixN prefix
		{in: "mix2(apsi@16+gafort@0", wantErr: true},   // unclosed
		{in: "mix2 (apsi@16+gafort@0)", wantErr: true}, // stray space
		{in: "mix1(apsi@16+gafort@0)", wantErr: true},  // N disagrees
		{in: "mix3(apsi@16+gafort@0)", wantErr: true},  // N disagrees
		{in: "mix2(apsi@+16+gafort@0)", wantErr: true}, // non-canonical numeral
		{in: "mix2(apsi@016+gafort@0)", wantErr: true}, // non-canonical numeral
		{in: "mix02(apsi@16+gafort@0)", wantErr: true}, // non-canonical count
		{in: "mix2(apsi@16+nosuch@0)", wantErr: true},  // unknown app
		{in: "mix2(apsi@-16+gafort@0)", wantErr: true}, // negative rotation
		{in: "mix2(apsi@16++gafort@0)", wantErr: true}, // empty entry
		{in: "mix2(APSI@16+gafort@0)", wantErr: true},  // app names are exact
		{in: "mix2(apsi@16+gafort@0) ", wantErr: true}, // trailing junk
		{in: "co2(swim+apsi)", want: "co2(swim+apsi)"},
		{in: "co1(swim)", want: "co1(swim)"},
		{in: "co2(swim@0+apsi)", wantErr: true},   // co-run entries carry no rotation
		{in: "co2(swim@0+apsi@0)", wantErr: true}, // co-run entries carry no rotation
		{in: "co02(swim+apsi)", wantErr: true},    // non-canonical count
		{in: "co3(swim+apsi)", wantErr: true},     // N disagrees
		{in: "co2(swim++apsi)", wantErr: true},    // empty entry
		{in: "co2(swim+nosuch)", wantErr: true},   // unknown app
		{in: "mix2(swim+apsi)", wantErr: true},    // phase mixes need rotations
		{in: "Co2(swim+apsi)", wantErr: true},     // the prefix is exact
	}
	for _, c := range cases {
		got, err := ParseMixSpec(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseMixSpec(%q) = %+v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMixSpec(%q): %v", c.in, err)
			continue
		}
		if c.want == "" {
			if got != nil {
				t.Errorf("ParseMixSpec(%q) = %+v, want nil", c.in, got)
			}
			continue
		}
		if got == nil || got.String() != c.want {
			t.Errorf("ParseMixSpec(%q).String() = %v, want %q", c.in, got, c.want)
		}
	}
}

func TestDefaultPhaseMixesValidate(t *testing.T) {
	mixes := DefaultPhaseMixes()
	if len(mixes) < 2 {
		t.Fatalf("want at least two phase mixes, got %d", len(mixes))
	}
	for _, mx := range mixes {
		if err := mx.Validate(); err != nil {
			t.Errorf("%s: %v", mx.String(), err)
		}
		// Every default mix must round-trip through its job-ID form.
		back, err := ParseMixSpec(mx.String())
		if err != nil || back.String() != mx.String() {
			t.Errorf("%s does not round-trip: %v, %v", mx.String(), back, err)
		}
		// At least one entry must actually rotate, or the mix is stationary
		// and does not belong in the phase-changing suite.
		rotates := false
		for _, e := range mx.Entries {
			if e.Rotate > 0 {
				rotates = true
			}
		}
		if !rotates {
			t.Errorf("%s never rotates", mx.String())
		}
	}
}

// FuzzParseMixSpec drives the parser with arbitrary input and pins the same
// contract FuzzParseMigrationSpec pins for migration specs: accepted input
// is valid, canonical, job-ID-safe, and a fixed point of parse→String→parse.
func FuzzParseMixSpec(f *testing.F) {
	f.Add("")
	f.Add("mix2(apsi@16+gafort@0)")
	f.Add("mix1(swim@0)")
	f.Add("mix2(apsi@+16+gafort@0)")
	f.Add("mix2(apsi@016+gafort@0)")
	f.Add("mix02(apsi@16+gafort@0)")
	f.Add("mix9999999999999999999(apsi@16)")
	f.Add("mix2(apsi@16+apsi@16)")
	f.Add("co2(swim+apsi)")
	f.Add("co2(swim@0+apsi)")
	f.Add("co02(swim+apsi)")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseMixSpec(s)
		if err != nil {
			if sp != nil {
				t.Fatalf("ParseMixSpec(%q) returned both a spec and an error", s)
			}
			return
		}
		if sp == nil {
			if s != "" {
				t.Fatalf("ParseMixSpec(%q) = nil, nil for non-empty input", s)
			}
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseMixSpec(%q) accepted an invalid mix: %v", s, err)
		}
		canon := sp.String()
		if canon != s {
			t.Fatalf("ParseMixSpec(%q) accepted a non-canonical spelling of %q", s, canon)
		}
		back, err := ParseMixSpec(canon)
		if err != nil || back == nil || back.String() != canon {
			t.Fatalf("canonical %q does not round-trip: %+v, %v", canon, back, err)
		}
		if strings.ContainsAny(canon, ", =") {
			t.Fatalf("canonical form %q contains job-ID delimiter characters", canon)
		}
	})
}
