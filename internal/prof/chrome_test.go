package prof

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"offchip/internal/probe"
)

// chromeGolden is the trace of driveAccess's access 2 (core 1, issued at
// 250): one "access" slice tiled by the components charged to it. Access 1
// is dropped by sampling (every 2), and the response's queueing, zero
// cycles here, writes nothing.
const chromeGolden = `[
{"name":"access","cat":"access","ph":"b","id":2,"ts":250,"pid":1,"tid":1},
{"name":"l1;lookup","cat":"access","ph":"b","id":2,"ts":250,"pid":1,"tid":1},
{"name":"l1;lookup","cat":"access","ph":"e","id":2,"ts":253,"pid":1,"tid":1},
{"name":"l2;lookup","cat":"access","ph":"b","id":2,"ts":253,"pid":1,"tid":1},
{"name":"l2;lookup","cat":"access","ph":"e","id":2,"ts":260,"pid":1,"tid":1},
{"name":"noc-req;hops","cat":"access","ph":"b","id":2,"ts":260,"pid":1,"tid":1,"args":{"hops":4}},
{"name":"noc-req;hops","cat":"access","ph":"e","id":2,"ts":272,"pid":1,"tid":1},
{"name":"noc-req;queueing","cat":"access","ph":"b","id":2,"ts":272,"pid":1,"tid":1,"args":{"hops":4}},
{"name":"noc-req;queueing","cat":"access","ph":"e","id":2,"ts":277,"pid":1,"tid":1},
{"name":"dir;lookup","cat":"access","ph":"b","id":2,"ts":277,"pid":1,"tid":1},
{"name":"dir;lookup","cat":"access","ph":"e","id":2,"ts":279,"pid":1,"tid":1},
{"name":"dram;queue","cat":"access","ph":"b","id":2,"ts":279,"pid":1,"tid":1,"args":{"mc":0,"bank":0}},
{"name":"dram;queue","cat":"access","ph":"e","id":2,"ts":285,"pid":1,"tid":1},
{"name":"dram;service","cat":"access","ph":"b","id":2,"ts":285,"pid":1,"tid":1,"args":{"mc":0,"bank":0}},
{"name":"dram;service","cat":"access","ph":"e","id":2,"ts":305,"pid":1,"tid":1},
{"name":"noc-resp;hops","cat":"access","ph":"b","id":2,"ts":305,"pid":1,"tid":1,"args":{"hops":4}},
{"name":"noc-resp;hops","cat":"access","ph":"e","id":2,"ts":317,"pid":1,"tid":1},
{"name":"access","cat":"access","ph":"e","id":2,"ts":317,"pid":1,"tid":1}
]
`

// TestChromeTraceGolden pins the Chrome rendering of the synthetic access
// stream byte for byte.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	p := New()
	p.TraceTo(&buf, 2)
	p.Bind(testParams())
	driveAccess(p, 1, 0, 100)
	driveAccess(p, 2, 1, 250)
	p.Finish(probe.Totals{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != chromeGolden {
		t.Fatalf("trace differs from the golden:\n%s", got)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("golden is not a JSON array: %v", err)
	}
}

// TestEmptyTraceCloses: a traced run with no accesses still closes to a
// valid, empty JSON array, and Close on an untraced profiler is a no-op.
func TestEmptyTraceCloses(t *testing.T) {
	var buf bytes.Buffer
	p := New()
	p.TraceTo(&buf, 1)
	p.Bind(testParams())
	p.Finish(probe.Totals{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil || len(evs) != 0 {
		t.Fatalf("empty trace %q: %v events, err %v", buf.String(), len(evs), err)
	}
	if err := New().Close(); err != nil {
		t.Fatalf("untraced Close: %v", err)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestTraceWriteErrorSurfaces: a write error is returned by Close, not
// dropped.
func TestTraceWriteErrorSurfaces(t *testing.T) {
	p := New()
	p.TraceTo(failingWriter{}, 1)
	p.Bind(testParams())
	driveAccess(p, 1, 0, 0)
	if err := p.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the write error", err)
	}
}
