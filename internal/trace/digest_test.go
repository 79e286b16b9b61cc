package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offchip/internal/approx"
	"offchip/internal/ir"
	"offchip/internal/layout"
	"offchip/internal/sim"
	"offchip/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/stream_digests.golden")

// digestCase is one machine/generation configuration of the digest sweep.
type digestCase struct {
	l2      layout.CacheKind
	gran    layout.Granularity
	threads int // 0: one per core
	cap     int
}

func (c digestCase) String() string {
	l2, gran := "private", "line"
	if c.l2 == layout.SharedL2 {
		l2 = "shared"
	}
	if c.gran == layout.PageInterleave {
		gran = "page"
	}
	cap := fmt.Sprint(c.cap)
	if c.cap == Unlimited {
		cap = "full"
	}
	return fmt.Sprintf("%s/%s/threads=%d/cap=%s", l2, gran, c.threads, cap)
}

// digestCases covers the 52 full-length traces of the paper's line- and
// page-interleaved suites (13 apps × 2 layouts × 2 interleaves), plus
// capped traces with 128 threads on 64 cores and with a shared L2.
var digestCases = []digestCase{
	{layout.PrivateL2, layout.LineInterleave, 0, Unlimited},
	{layout.PrivateL2, layout.PageInterleave, 0, Unlimited},
	{layout.PrivateL2, layout.LineInterleave, 128, 200},
	{layout.PrivateL2, layout.PageInterleave, 128, 200},
	{layout.SharedL2, layout.LineInterleave, 0, 200},
}

// workloadDigest hashes everything the simulator reads from a workload:
// each stream's core, app ID and phase markers, and each access's virtual
// address and desired controller.
func workloadDigest(w *sim.Workload) (string, int) {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	total := 0
	put(int64(len(w.Streams)))
	for _, s := range w.Streams {
		put(int64(s.Core))
		put(int64(s.AppID))
		put(int64(len(s.Phases)))
		for _, p := range s.Phases {
			put(int64(p))
		}
		put(int64(len(s.Accesses)))
		for _, a := range s.Accesses {
			put(a.VAddr)
			h.Write([]byte{byte(a.DesiredMC)})
		}
		total += len(s.Accesses)
	}
	return hex.EncodeToString(h.Sum(nil)), total
}

// TestGenerateStreamsExactLength: every stream Generate returns holds its
// accesses and phase markers at exactly their length, with no growth slack,
// for two apps under identity and optimized layouts, capped and full.
func TestGenerateStreamsExactLength(t *testing.T) {
	m := layout.Default8x8()
	cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"apsi", "hpccg"} {
		app, _ := workloads.ByName(name)
		p, store, err := app.Load()
		if err != nil {
			t.Fatal(err)
		}
		res, err := layout.Optimize(p, m, cm, &layout.Options{Approx: approx.NewProfiler(store)})
		if err != nil {
			t.Fatal(err)
		}
		identity := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
		for _, l := range []*layout.Result{identity, res} {
			for _, limit := range []int{200, Unlimited} {
				w, err := Generate(p, l, m, store, Options{MaxAccessesPerThread: limit})
				if err != nil {
					t.Fatal(err)
				}
				if len(w.Streams) != cap(w.Streams) {
					t.Errorf("%s limit=%d: %d streams, capacity %d", name, limit, len(w.Streams), cap(w.Streams))
				}
				for i, s := range w.Streams {
					if len(s.Accesses) != cap(s.Accesses) || len(s.Phases) != cap(s.Phases) {
						t.Errorf("%s optimized=%v limit=%d stream %d: accesses len %d cap %d, phases len %d cap %d",
							name, l == res, limit, i, len(s.Accesses), cap(s.Accesses), len(s.Phases), cap(s.Phases))
					}
				}
			}
		}
	}
}

// TestStreamDigests pins every generated stream of the bundled workloads
// by digest, so any change to trace generation that alters a single
// address, controller hint, phase marker or stream header fails here. The
// golden file was recorded with the map-environment interpreter the
// compiled walker replaced. Regenerate deliberately with:
//
//	go test ./internal/trace -run TestStreamDigests -update
func TestStreamDigests(t *testing.T) {
	var lines []string
	for _, c := range digestCases {
		m := layout.Default8x8()
		m.L2, m.Interleave = c.l2, c.gran
		cm, err := layout.MappingM1(m, layout.PlacementCorners(m.MeshX, m.MeshY))
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range workloads.All() {
			p, store, err := app.Load()
			if err != nil {
				t.Fatal(err)
			}
			res, err := layout.Optimize(p, m, cm, &layout.Options{Threads: c.threads, Approx: approx.NewProfiler(store)})
			if err != nil {
				t.Fatal(err)
			}
			identity := &layout.Result{Program: p, Layouts: map[*ir.Array]*layout.ArrayLayout{}}
			for _, l := range []struct {
				name string
				res  *layout.Result
			}{{"identity", identity}, {"optimized", res}} {
				w, err := Generate(p, l.res, m, store, Options{Threads: c.threads, MaxAccessesPerThread: c.cap})
				if err != nil {
					t.Fatal(err)
				}
				d, n := workloadDigest(w)
				lines = append(lines, fmt.Sprintf("%s %s %s accesses=%d %s", c, app.Name, l.name, n, d))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "stream_digests.golden")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d digests, golden has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("stream digest drifted:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
