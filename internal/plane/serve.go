package plane

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"offchip/internal/obs"
	"offchip/internal/prof"
)

// The live observability plane: an opt-in HTTP endpoint (the -serve flag
// of cmd/offchip and cmd/benchtab) exposing a Plane's registries as
// Prometheus text exposition (/metrics), its job counts as JSON
// (/progress), its attribution snapshot (/profile), and the process's own
// Go profiles (/debug/pprof/). The listener binds before the run starts —
// a bad address fails fast instead of racing a goroutine — and shuts down
// cleanly at exit.

// Progress is the /progress payload. The serving side fills Elapsed and
// ETA from its own clock; the plane fills the job counts.
type Progress struct {
	TotalJobs  int     `json:"total_jobs"`
	DoneJobs   int     `json:"done_jobs"`
	InFlight   int     `json:"in_flight"`
	Failed     int     `json:"failed"`
	ElapsedSec float64 `json:"elapsed_sec"`
	ETASec     float64 `json:"eta_sec"`
}

// Server is the live observability endpoint of a Plane.
type Server struct {
	plane *Plane
	ln    net.Listener
	srv   *http.Server
	start time.Time

	mu     sync.Mutex
	closed bool
}

// NewServer binds the listener on addr (e.g. ":9090", "127.0.0.1:0"),
// failing fast on a bad address, and serves plane on it until Close.
func NewServer(addr string, plane *Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("plane: serve: %w", err)
	}
	s := &Server{plane: plane, ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		// The listener is already bound, so a serve error here is a
		// shutdown race at worst; nothing useful to surface.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and releases the listener. Safe to call
// more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "offchip observability plane\n/metrics      Prometheus text exposition\n/progress     job progress JSON\n/profile      latency attribution JSON\n/debug/pprof/ Go profiles of this process\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteExposition(w, s.plane.registries())
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	p := s.plane.progress()
	p.ElapsedSec = time.Since(s.start).Seconds()
	if p.DoneJobs > 0 && p.DoneJobs < p.TotalJobs {
		p.ETASec = p.ElapsedSec / float64(p.DoneJobs) * float64(p.TotalJobs-p.DoneJobs)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	out := map[string]prof.Summary{}
	for label, p := range s.plane.Profiles() {
		out[label] = p.Summarize()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// --- Prometheus text exposition ---------------------------------------

// sanitizeMetricName maps a registry component/name to the Prometheus
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sanitizeLabelName(s string) string { return sanitizeMetricName(s) }

// promLabels renders a label set ({} omitted when empty), keys sorted.
func promLabels(labels map[string]string, extra ...[2]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", sanitizeLabelName(k), labels[k]))
	}
	for _, kv := range extra {
		parts = append(parts, fmt.Sprintf("%s=%q", sanitizeLabelName(kv[0]), kv[1]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteExposition writes every registry's snapshot in Prometheus text
// exposition format (one family per component/name, `# TYPE` lines,
// cumulative histogram buckets with le labels, _sum and _count series).
// The source map key becomes a source="..." label; sources and samples
// are emitted in sorted order, so the output is deterministic.
func WriteExposition(w io.Writer, sources map[string]*obs.Registry) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)

	type family struct {
		name  string
		typ   string
		lines []string
	}
	byName := map[string]*family{}
	var order []string
	add := func(name, typ, line string) {
		f := byName[name]
		if f == nil {
			f = &family{name: name, typ: typ}
			byName[name] = f
			order = append(order, name)
		}
		f.lines = append(f.lines, line)
	}

	for _, src := range names {
		reg := sources[src]
		if reg == nil {
			continue
		}
		srcLabel := [2]string{"source", src}
		for _, p := range reg.Snapshot(0) {
			name := "offchip_" + sanitizeMetricName(p.Component) + "_" + sanitizeMetricName(p.Name)
			switch p.Type {
			case "counter":
				add(name, "counter", fmt.Sprintf("%s%s %d", name, promLabels(p.Labels, srcLabel), p.Value))
			case "timeweighted":
				add(name, "gauge", fmt.Sprintf("%s%s %d", name, promLabels(p.Labels, srcLabel), p.Value))
			case "histogram":
				var cum int64
				for i, c := range p.Counts {
					cum += c
					le := "+Inf"
					if i < len(p.Buckets) {
						le = strconv.FormatInt(p.Buckets[i], 10)
					}
					add(name, "histogram", fmt.Sprintf("%s_bucket%s %d",
						name, promLabels(p.Labels, srcLabel, [2]string{"le", le}), cum))
				}
				add(name, "histogram", fmt.Sprintf("%s_sum%s %d", name, promLabels(p.Labels, srcLabel), p.Sum))
				add(name, "histogram", fmt.Sprintf("%s_count%s %d", name, promLabels(p.Labels, srcLabel), p.Count))
			}
		}
	}

	for _, n := range order {
		f := byName[n]
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, l := range f.lines {
			fmt.Fprintln(w, l)
		}
	}
}
