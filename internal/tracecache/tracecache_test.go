package tracecache_test

// The cache's contract is "byte-identical, wall-clock only": every stream a
// cached Generate returns — hit or miss — must match a fresh trace.Generate
// access for access. The differential sweep below pins that for every
// bundled workload under all three schemes (line/private, page/private,
// line/shared), with both the identity and optimized layouts;
// `make check` runs this package under -race, which also exercises the
// singleflight paths.

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"offchip/internal/approx"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/trace"
	"offchip/internal/tracecache"
	"offchip/internal/workloads"
)

// scheme is one machine configuration of the differential sweep.
type scheme struct {
	name string
	l2   layout.CacheKind
	gran layout.Granularity
}

var schemes = []scheme{
	{"line-private", layout.PrivateL2, layout.LineInterleave},
	{"page-private", layout.PrivateL2, layout.PageInterleave},
	{"line-shared", layout.SharedL2, layout.LineInterleave},
}

// setup loads one app on one scheme's machine and runs the layout pass.
func setup(t *testing.T, app *workloads.App, sc scheme) (*ir.Program, *ir.DataStore, *layout.Result, layout.Machine) {
	t.Helper()
	m := layout.Default8x8()
	m.L2 = sc.l2
	m.Interleave = sc.gran
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	p, store, err := app.Load()
	if err != nil {
		t.Fatal(err)
	}
	res, err := layout.Optimize(p, m, cm, &layout.Options{Approx: approx.NewProfiler(store)})
	if err != nil {
		t.Fatal(err)
	}
	return p, store, res, m
}

// identityResult mirrors core.Workloads' baseline: no optimized layouts.
func identityResult(p *ir.Program) *layout.Result {
	return &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
}

// sameWorkload asserts two workloads are identical stream for stream and
// access for access (nil and empty slices compare equal — decoded workloads
// use empty subslices where fresh ones may carry nil).
func sameWorkload(t *testing.T, tag string, got, want *sim.Workload) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("%s: Name = %q, want %q", tag, got.Name, want.Name)
	}
	if len(got.Streams) != len(want.Streams) {
		t.Fatalf("%s: %d streams, want %d", tag, len(got.Streams), len(want.Streams))
	}
	for i := range want.Streams {
		g, w := &got.Streams[i], &want.Streams[i]
		if g.Core != w.Core || g.AppID != w.AppID {
			t.Errorf("%s: stream %d header (%d,%d), want (%d,%d)", tag, i, g.Core, g.AppID, w.Core, w.AppID)
		}
		if len(g.Phases) != len(w.Phases) {
			t.Fatalf("%s: stream %d has %d phases, want %d", tag, i, len(g.Phases), len(w.Phases))
		}
		for j := range w.Phases {
			if g.Phases[j] != w.Phases[j] {
				t.Fatalf("%s: stream %d phase %d = %d, want %d", tag, i, j, g.Phases[j], w.Phases[j])
			}
		}
		if len(g.Accesses) != len(w.Accesses) {
			t.Fatalf("%s: stream %d has %d accesses, want %d", tag, i, len(g.Accesses), len(w.Accesses))
		}
		for j := range w.Accesses {
			if g.Accesses[j] != w.Accesses[j] {
				t.Fatalf("%s: stream %d access %d = %+v, want %+v", tag, i, j, g.Accesses[j], w.Accesses[j])
			}
		}
	}
}

// TestCachedStreamsByteIdentical is the differential sweep: for every
// workload × scheme × (identity, optimized) layout, the workload from a cold
// cache (a miss that generates) and from a warm one (an in-process hit) must
// both equal plain trace.Generate — down to the encoded bytes.
func TestCachedStreamsByteIdentical(t *testing.T) {
	const cap = 200
	for _, app := range workloads.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for _, sc := range schemes {
				p, store, optRes, m := setup(t, app, sc)
				c, err := tracecache.New("")
				if err != nil {
					t.Fatal(err)
				}
				for _, lay := range []struct {
					name string
					res  *layout.Result
				}{{"identity", identityResult(p)}, {"optimized", optRes}} {
					tag := app.Name + "/" + sc.name + "/" + lay.name
					tOpt := trace.Options{MaxAccessesPerThread: cap}
					fresh, err := trace.Generate(p, lay.res, m, store, tOpt)
					if err != nil {
						t.Fatal(err)
					}
					miss, err := c.Generate(p, lay.res, m, store, tOpt)
					if err != nil {
						t.Fatal(err)
					}
					sameWorkload(t, tag+"/miss", miss, fresh)
					hit, err := c.Generate(p, lay.res, m, store, tOpt)
					if err != nil {
						t.Fatal(err)
					}
					sameWorkload(t, tag+"/hit", hit, fresh)
					if !bytes.Equal(tracecache.Encode(miss, 7), tracecache.Encode(fresh, 7)) {
						t.Errorf("%s: cached workload encodes differently from fresh", tag)
					}
				}
				if st := c.Stats(); st.Misses != 2 || st.Hits != 2 {
					t.Errorf("%s/%s: cache stats %+v, want 2 misses and 2 hits", app.Name, sc.name, st)
				}
			}
		})
	}
}

// TestEncodeDecodeRoundtrip covers the wire format directly on a synthetic
// workload with the awkward shapes: negative address deltas, an empty
// stream, empty phase lists, long DesiredMC runs.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	w := &sim.Workload{
		Name: "synthetic",
		Streams: []sim.Stream{
			{Core: 0, AppID: 0, Phases: []int{0, 2, 5}, Accesses: []sim.Access{
				{VAddr: 1 << 40, DesiredMC: -1},
				{VAddr: 64, DesiredMC: -1}, // large negative delta
				{VAddr: 128, DesiredMC: 3},
				{VAddr: 192, DesiredMC: 3},
				{VAddr: 0, DesiredMC: 3},
			}},
			{Core: 7, AppID: 2}, // empty stream
			{Core: 63, AppID: 1, Accesses: []sim.Access{{VAddr: 4096, DesiredMC: 0}}},
		},
	}
	const hash = 0xdeadbeefcafe
	blob := tracecache.Encode(w, hash)
	got, err := tracecache.Decode(blob, hash)
	if err != nil {
		t.Fatal(err)
	}
	sameWorkload(t, "roundtrip", got, w)

	// A reused decoder must produce correct output after decoding something
	// larger first (buffer reuse is the whole point of the type).
	var d tracecache.Decoder
	if _, err := d.Decode(blob, hash); err != nil {
		t.Fatal(err)
	}
	small := &sim.Workload{Name: "s", Streams: []sim.Stream{{Core: 1, Accesses: []sim.Access{{VAddr: 8, DesiredMC: -1}}}}}
	blob2 := tracecache.Encode(small, 1)
	got2, err := d.Decode(blob2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameWorkload(t, "reuse", got2, small)
}

// TestDecodeRejectsCorruption: wrong key hash, wrong magic, and every
// truncation point must fail cleanly (error, never a panic or a mangled
// workload).
func TestDecodeRejectsCorruption(t *testing.T) {
	w := &sim.Workload{
		Name: "c",
		Streams: []sim.Stream{{Core: 3, Phases: []int{0, 1}, Accesses: []sim.Access{
			{VAddr: 100, DesiredMC: 1}, {VAddr: 164, DesiredMC: 2},
		}}},
	}
	blob := tracecache.Encode(w, 42)
	if _, err := tracecache.Decode(blob, 43); err == nil {
		t.Error("key-hash mismatch accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := tracecache.Decode(bad, 42); err == nil {
		t.Error("bad magic accepted")
	}
	for n := 0; n < len(blob); n++ {
		if _, err := tracecache.Decode(blob[:n], 42); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestSingleflight: concurrent requesters of one key share a single
// generation; everyone gets an identical workload. Run under -race via
// `make check`.
func TestSingleflight(t *testing.T) {
	app := workloads.All()[0]
	p, store, res, m := setup(t, app, schemes[0])
	tOpt := trace.Options{MaxAccessesPerThread: 150}
	fresh, err := trace.Generate(p, res, m, store, tOpt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tracecache.New("")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	got := make([]*sim.Workload, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.Generate(p, res, m, store, tOpt)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameWorkload(t, "caller", got[i], fresh)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats %+v, want exactly 1 miss and %d hits", st, callers-1)
	}
}

// TestKeySensitivity: anything trace generation can observe must change the
// key; pure normalization (0 vs default cap, negative caps) must not.
func TestKeySensitivity(t *testing.T) {
	app := workloads.All()[0]
	p, store, res, m := setup(t, app, schemes[0])
	base := tracecache.KeyOf(p, res, m, store, trace.Options{MaxAccessesPerThread: 200})

	distinct := map[string]tracecache.Key{
		"cap":      tracecache.KeyOf(p, res, m, store, trace.Options{MaxAccessesPerThread: 300}),
		"threads":  tracecache.KeyOf(p, res, m, store, trace.Options{MaxAccessesPerThread: 200, Threads: 8}),
		"identity": tracecache.KeyOf(p, identityResult(p), m, store, trace.Options{MaxAccessesPerThread: 200}),
	}
	m2 := m
	m2.Interleave = layout.PageInterleave
	distinct["interleave"] = tracecache.KeyOf(p, res, m2, store, trace.Options{MaxAccessesPerThread: 200})
	seen := map[tracecache.Key]string{base: "base"}
	for name, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key equals %s's", name, prev)
		}
		seen[k] = name
	}

	// Normalization: every non-positive cap means full traces, so cap 0,
	// Unlimited and any other negative cap must share entries.
	unl := tracecache.KeyOf(p, res, m, store, trace.Options{MaxAccessesPerThread: trace.Unlimited})
	if got := tracecache.KeyOf(p, res, m, store, trace.Options{}); got != unl {
		t.Error("cap 0 and Unlimited key apart")
	}
	if got := tracecache.KeyOf(p, res, m, store, trace.Options{MaxAccessesPerThread: -99}); got != unl {
		t.Error("negative caps key apart")
	}
}

// TestNilCache: a nil *Cache is the documented no-caching mode.
func TestNilCache(t *testing.T) {
	app := workloads.All()[0]
	p, store, res, m := setup(t, app, schemes[0])
	tOpt := trace.Options{MaxAccessesPerThread: 150}
	fresh, err := trace.Generate(p, res, m, store, tOpt)
	if err != nil {
		t.Fatal(err)
	}
	var c *tracecache.Cache
	w, err := c.Generate(p, res, m, store, tOpt)
	if err != nil {
		t.Fatal(err)
	}
	sameWorkload(t, "nil-cache", w, fresh)
	if st := c.Stats(); st != (tracecache.Stats{}) {
		t.Errorf("nil cache has stats %+v", st)
	}
}

// TestOpen pins the -trace-cache flag values: "" is no cache, "mem" an
// in-process cache that generates once and then hits, and a directory, the
// retired on-disk store, an error that names it. New refuses a directory
// the same way.
func TestOpen(t *testing.T) {
	if c, err := tracecache.Open(""); c != nil || err != nil {
		t.Errorf(`Open("") = %v, %v; want no cache`, c, err)
	}

	app := workloads.All()[0]
	p, store, res, m := setup(t, app, schemes[0])
	tOpt := trace.Options{MaxAccessesPerThread: 150}
	c, err := tracecache.Open("mem")
	if err != nil || c == nil {
		t.Fatalf(`Open("mem") = %v, %v`, c, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Generate(p, res, m, store, tOpt); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st != (tracecache.Stats{Hits: 1, Misses: 1}) {
		t.Errorf(`Open("mem"): stats %+v after two lookups, want 1 miss and 1 hit`, st)
	}

	const retired = "the on-disk trace store is retired"
	if c, err := tracecache.Open(t.TempDir()); c != nil || err == nil || !strings.Contains(err.Error(), retired) {
		t.Errorf("Open(dir) = %v, %v; want an error containing %q", c, err, retired)
	}
	if c, err := tracecache.New("x"); c != nil || err == nil || !strings.Contains(err.Error(), retired) {
		t.Errorf(`New("x") = %v, %v; want an error containing %q`, c, err, retired)
	}
}

// BenchmarkDecodeCacheHit is the OTC1 decoder's steady state — a reused
// Decoder over one encoded blob. benchgate pins it at 0 allocs/op (`make
// check`) for as long as the codec exists. The cache itself decodes
// nothing: a hit shares the generated workload.
func BenchmarkDecodeCacheHit(b *testing.B) {
	app := workloads.All()[0]
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		b.Fatal(err)
	}
	p, store, err := app.Load()
	if err != nil {
		b.Fatal(err)
	}
	res, err := layout.Optimize(p, m, cm, &layout.Options{Approx: approx.NewProfiler(store)})
	if err != nil {
		b.Fatal(err)
	}
	w, err := trace.Generate(p, res, m, store, trace.Options{MaxAccessesPerThread: 1500})
	if err != nil {
		b.Fatal(err)
	}
	blob := tracecache.Encode(w, 99)
	var d tracecache.Decoder
	if _, err := d.Decode(blob, 99); err != nil { // warm the buffers
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(blob, 99); err != nil {
			b.Fatal(err)
		}
	}
}
