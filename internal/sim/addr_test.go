package sim

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"offchip/internal/layout"
)

// TestNegativeAddressRejected: the machine indexes address spaces by app ID
// and page tables by virtual page, so Run and RunSampled refuse a stream
// with a negative virtual address or app ID, under both interleavings, and
// name the stream, its core and app, and the access.
func TestNegativeAddressRejected(t *testing.T) {
	for _, il := range []layout.Granularity{layout.LineInterleave, layout.PageInterleave} {
		cfg := testConfig(t)
		cfg.Machine.Interleave = il

		deep := sampleWorkload(4, 2000)
		deep.Streams[1].Accesses[1500].VAddr = -8
		negApp := sampleWorkload(4, 2000)
		negApp.Streams[2].AppID = -1
		// The last stream's last access, after every other stream's and its
		// own non-negative addresses, and in an application of its own.
		late := sampleWorkload(4, 2000)
		late.Streams[3].AppID = 1
		late.Streams[3].Accesses[1999].VAddr = -1 << 40
		for name, tc := range map[string]struct {
			w    *Workload
			want string
		}{
			"one access":      {oneAccess(0, -8), "stream 0 (core 0, app 0) has negative address -8 at access 0"},
			"deep in stream":  {deep, "stream 1 (core 1, app 0) has negative address -8 at access 1500"},
			"later stream":    {late, "stream 3 (core 3, app 1) has negative address -1099511627776 at access 1999"},
			"negative app ID": {negApp, "stream 2 (core 2) has negative app ID -1"},
		} {
			if _, err := Run(cfg, tc.w); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v, %s: Run error %v, want one containing %q", il, name, err, tc.want)
			}
			if _, err := RunSampled(cfg, tc.w, DefaultSampleSpec()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v, %s: RunSampled error %v, want one containing %q", il, name, err, tc.want)
			}
		}
	}
}

// TestSparseAppIDs: app IDs need not be dense. The unused IDs get no
// address space, and only the apps that ran report an exec time. Sampling
// refuses the run, as it refuses every workload of several applications
// whose windows do not cover it, and names two of its app IDs.
func TestSparseAppIDs(t *testing.T) {
	cfg := testConfig(t)
	cfg.Machine.Interleave = layout.PageInterleave
	w := sampleWorkload(4, 2000)
	for i, app := range []int{5, 0, 5, 2} {
		w.Streams[i].AppID = app
	}
	keys := func(m map[int]int64) []int {
		var out []int
		for k, v := range m {
			if v <= 0 {
				t.Errorf("app %d exec time %d", k, v)
			}
			out = append(out, k)
		}
		sort.Ints(out)
		return out
	}
	r, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(r.AppExecTime); !slices.Equal(got, []int{0, 2, 5}) {
		t.Errorf("full run AppExecTime apps %v, want [0 2 5]", got)
	}
	if DefaultSampleSpec().coversAll(w) {
		t.Fatal("workload too small: the default spec covers it")
	}
	const want = "sampled simulation cannot estimate a run of several applications (apps 5 and 0)"
	if _, err := RunSampled(cfg, w, DefaultSampleSpec()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunSampled error %v, want one containing %q", err, want)
	}
}
