package prof

import (
	"bufio"
	"io"
	"strconv"

	"offchip/internal/probe"
)

// chrome is the profiler's Chrome trace_event sink (see TraceTo).
type chrome struct {
	w     *bufio.Writer // write errors stick here and surface at Close
	every int64
	n     int64  // events written
	buf   []byte // the event being encoded, reused
}

// TraceTo makes the profiler write its attribution to w as a Chrome
// trace_event JSON array (chrome://tracing, Perfetto): a third view of the
// same charges the tables and the flamegraph sum. Each traced access is an
// async slice named "access" (id: its probe ID; pid and tid: its core), and
// every component charged to it is a nested slice named by
// Component.String() that spans exactly the charged cycles, so a traced
// access's slices sum to its end-to-end latency. Transit slices carry their
// hop count, DRAM slices their controller and bank. Async slices are needed
// because a core has up to an MLP window of accesses in flight at once.
//
// every > 1 traces only the accesses whose probe ID is a multiple of every,
// each with all of its slices. Timestamps are simulated cycles. Call Close
// after the run.
func (p *Profiler) TraceTo(w io.Writer, every int64) {
	p.trace = &chrome{w: bufio.NewWriter(w), every: max(every, 1)}
}

// Close terminates and flushes the trace TraceTo started, returning the
// first write error. Without a trace it does nothing.
func (p *Profiler) Close() error {
	t := p.trace
	if t == nil {
		return nil
	}
	if t.n == 0 {
		t.w.WriteString("[")
	}
	t.w.WriteString("\n]\n")
	return t.w.Flush()
}

// keeps reports whether access id is traced; false without a trace.
func (t *chrome) keeps(id int64) bool { return t != nil && id%t.every == 0 }

// event writes one async begin ('b') or end ('e') event of access id. name
// is a fixed JSON-safe label. A begin event takes its args from the stage
// that ended the slice.
func (t *chrome) event(ph byte, name string, id int64, core int, ts int64, s *probe.Stage) {
	b := append(t.buf[:0], ",\n"...)
	if t.n == 0 {
		b[0] = '['
	}
	t.n++
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","cat":"access","ph":"`...)
	b = append(b, ph)
	b = append(b, `","id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(core), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(core), 10)
	switch {
	case s == nil:
	case s.Kind.Transit():
		b = append(b, `,"args":{"hops":`...)
		b = strconv.AppendInt(b, int64(s.Hops), 10)
		b = append(b, '}')
	case s.Kind == probe.DRAMDone:
		b = append(b, `,"args":{"mc":`...)
		b = strconv.AppendInt(b, int64(s.MC), 10)
		b = append(b, `,"bank":`...)
		b = strconv.AppendInt(b, int64(s.Service.Bank), 10)
		b = append(b, '}')
	}
	b = append(b, '}')
	t.w.Write(b)
	t.buf = b
}
