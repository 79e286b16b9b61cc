package sim

import (
	"fmt"
	"testing"
)

// issued is one access a core issues: the access (whose address encodes
// its stream and index), the stream's app, and whether it was the last.
type issued struct {
	acc  Access
	app  int
	last bool
}

// refIssueOrder is the index walk the simulator used before stream cursors:
// each non-empty stream keeps an index and a done flag, round-robin advances
// with a modulo, and Sequential takes the first unfinished stream.
func refIssueOrder(streams []Stream, core int, seq bool) []issued {
	type walk struct {
		st   *Stream
		idx  int
		done bool
	}
	var ws []*walk
	for i := range streams {
		if streams[i].Core == core && len(streams[i].Accesses) > 0 {
			ws = append(ws, &walk{st: &streams[i]})
		}
	}
	var out []issued
	next := 0
	for {
		var w *walk
		if seq {
			for _, x := range ws {
				if !x.done {
					w = x
					break
				}
			}
		} else {
			n := len(ws)
			for i := 0; i < n; i++ {
				if x := ws[(next+i)%n]; !x.done {
					w, next = x, (next+i+1)%n
					break
				}
			}
		}
		if w == nil {
			return out
		}
		acc := w.st.Accesses[w.idx]
		w.idx++
		w.done = w.idx == len(w.st.Accesses)
		out = append(out, issued{acc, w.st.AppID, w.done})
	}
}

// cursorIssueOrder drains one core through bindStreams, nextReady and pop.
func cursorIssueOrder(m *machine, core int) []issued {
	var out []issued
	cs := m.cores[core]
	for ss := m.nextReady(cs); ss != nil; ss = m.nextReady(cs) {
		acc, last := ss.pop()
		out = append(out, issued{acc, ss.app, last})
	}
	return out
}

// TestStreamCursorMatchesIndexWalk checks the stream cursors against the
// index walk they replace: every combination of one to three streams per
// core with lengths around the buffer size (1, K−1, K, K+1, 3K+5, and 0,
// which is skipped), under round-robin and Sequential. The issue order of
// (stream, index) must be identical, and each stream must report its last
// access exactly once.
func TestStreamCursorMatchesIndexWalk(t *testing.T) {
	const K = streamBuf
	lengths := []int{1, K - 1, K, K + 1, 3*K + 5, 0}
	var combos [][]int
	var grow func(prefix []int)
	grow = func(prefix []int) {
		if len(prefix) > 0 {
			combos = append(combos, prefix)
		}
		if len(prefix) == 3 {
			return
		}
		for _, n := range lengths {
			grow(append(append([]int(nil), prefix...), n))
		}
	}
	grow(nil)

	for _, combo := range combos {
		// Core 0 gets the combination and core 1 its reverse, declared
		// interleaved, so binding must sort streams onto their cores.
		var streams []Stream
		for i := range combo {
			for core, n := range []int{combo[i], combo[len(combo)-1-i]} {
				id := len(streams)
				st := Stream{Core: core, AppID: id % 3}
				for j := 0; j < n; j++ {
					st.Accesses = append(st.Accesses, Access{VAddr: int64(id)<<20 | int64(j), DesiredMC: int8(j % 5)})
				}
				streams = append(streams, st)
			}
		}
		for _, seq := range []bool{false, true} {
			name := fmt.Sprintf("%v/seq=%v", combo, seq)
			m := &machine{seq: seq, cores: []*coreState{{}, {}}}
			m.bindStreams(streams)
			nonEmpty := 0
			for _, st := range streams {
				if len(st.Accesses) > 0 {
					nonEmpty++
				}
			}
			if m.running != nonEmpty {
				t.Fatalf("%s: %d streams running, want %d", name, m.running, nonEmpty)
			}
			lasts := make([]int, len(streams))
			for core := range m.cores {
				got, want := cursorIssueOrder(m, core), refIssueOrder(streams, core, seq)
				if len(got) != len(want) {
					t.Fatalf("%s core %d: %d accesses issued, want %d", name, core, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s core %d: issue %d = %+v, want %+v", name, core, i, got[i], want[i])
					}
					if got[i].last {
						id := int(got[i].acc.VAddr >> 20)
						lasts[id]++
						if int(got[i].acc.VAddr&(1<<20-1)) != len(streams[id].Accesses)-1 {
							t.Fatalf("%s: stream %d reported last at %+v", name, id, got[i].acc)
						}
					}
				}
			}
			for id, st := range streams {
				if want := min(len(st.Accesses), 1); lasts[id] != want {
					t.Fatalf("%s: stream %d (length %d) reported last %d times, want %d",
						name, id, len(st.Accesses), lasts[id], want)
				}
			}
		}
	}
}
