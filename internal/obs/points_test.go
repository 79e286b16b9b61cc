package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// populated returns a registry exercising every metric kind, shaped like the
// per-run registries a sweep job produces.
func populated() *Registry {
	r := NewRegistry()
	r.Counter("noc", "link_traversals", "x=1", "y=2").Add(42)
	r.Counter("dram", "requests", "mc=0").Add(7)
	r.TimeWeighted("sim", "outstanding").Set(5, 3)
	tw := r.TimeWeighted("dram", "queue_len", "mc=1")
	tw.Set(10, 4)
	tw.Set(30, 2)
	h := r.Histogram("noc", "hops", []int64{1, 2, 4, 8}, "kind=offchip")
	for _, v := range []int64{1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	return r
}

// TestFromPointsInvertsSnapshot pins the round trip: Snapshot → JSON →
// FromPoints → Snapshot must be byte-identical, including the time-weighted
// gauge's full state (not just its finalized average).
func TestFromPointsInvertsSnapshot(t *testing.T) {
	src := populated()
	const until = int64(100)
	snap := src.Snapshot(until)

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var wire []Point
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	rebuilt := FromPoints(wire)
	got := rebuilt.Snapshot(until)
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("rebuilt snapshot differs:\n got %+v\nwant %+v", got, snap)
	}

	// The round trip must hold at a different finalization horizon too —
	// that's what proves the raw (integral, last, cur) state survived rather
	// than just the until-specific average.
	other := src.Snapshot(250)
	if !reflect.DeepEqual(rebuilt.Snapshot(250), other) {
		t.Fatal("rebuilt snapshot differs at a different horizon")
	}
}

// TestFromPointsMergeEquivalence is the property the sweep service relies
// on: merging a reconstructed registry is indistinguishable from merging the
// original.
func TestFromPointsMergeEquivalence(t *testing.T) {
	src := populated()
	const until = int64(64)

	direct := NewRegistry()
	direct.MergeScoped(src, until, "job=j-1", "run=optimized")

	rebuilt := FromPoints(src.Snapshot(until))
	viaWire := NewRegistry()
	viaWire.MergeScoped(rebuilt, until, "job=j-1", "run=optimized")

	var a, b bytes.Buffer
	if err := WriteJSONL(&a, direct.Snapshot(until)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, viaWire.Snapshot(until)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged views differ:\n direct: %s\n wire:   %s", a.String(), b.String())
	}
}

// TestFromPointsEmptyAndUnknown: empty input yields an empty registry, and
// unknown point types are skipped rather than panicking (forward
// compatibility with newer writers).
func TestFromPointsEmptyAndUnknown(t *testing.T) {
	if n := len(FromPoints(nil).Snapshot(0)); n != 0 {
		t.Fatalf("empty input produced %d metrics", n)
	}
	r := FromPoints([]Point{{Component: "x", Name: "y", Type: "summary-from-the-future"}})
	if n := len(r.Snapshot(0)); n != 0 {
		t.Fatalf("unknown type produced %d metrics", n)
	}
}
