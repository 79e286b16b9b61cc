// Package plane is the observability plane of both CLIs, cmd/offchip and
// cmd/benchtab: a process's run registries, summed attribution profiles
// and job counts (Plane), the -serve HTTP endpoint over them (Server, which
// also serves Go's /debug/pprof/), and the -metrics JSONL dump with its
// provenance manifest. Only the CLIs import it, so the simulator, core and
// the job runner link no HTTP server.
package plane

import (
	"os"
	"sort"
	"sync"

	"offchip/internal/obs"
	"offchip/internal/prof"
)

// Plane is the one observability plane of both CLIs: what their -serve
// Server reads and their -metrics dump writes. It keeps each run's
// registry under a label the caller chooses, sums attribution profiles per
// run name, records each job ID once and counts jobs. Callers fill it while
// the Server's handlers read it, so a mutex guards it.
type Plane struct {
	workers int // jobs that run at once, which bounds /progress's in-flight count

	mu       sync.Mutex
	runs     map[string]planeRun      // label → registry
	profiles map[string]*prof.Profile // run name → sum over recorded jobs
	jobs     map[string]bool          // job IDs recorded so far
	total    int                      // jobs started so far
	done     int                      // finished jobs, failed ones included
	failed   int
}

// planeRun is one run's registry and the end time its snapshot closes at.
type planeRun struct {
	reg   *obs.Registry
	until int64
}

// New returns an empty plane for a process that runs up to workers jobs at
// once.
func New(workers int) *Plane {
	return &Plane{
		workers:  max(workers, 1),
		runs:     map[string]planeRun{},
		profiles: map[string]*prof.Profile{},
		jobs:     map[string]bool{},
	}
}

// Record keeps reg under label, replacing what the label held, with the
// end time its dump snapshot closes at. A run still going on is recorded
// with until 0, so /metrics serves it live, and again with its end time
// once it finishes.
func (p *Plane) Record(label string, reg *obs.Registry, until int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs[label] = planeRun{reg, until}
}

// Start adds n jobs to the total /progress reports.
func (p *Plane) Start(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total += n
}

// Finish counts a finished job, failed when err is set. It records a job
// that succeeded unless its ID was recorded before, adding profiles (run
// name → profile) to the per-run-name sums; a job without an ID is recorded
// every time. It reports whether it recorded the job, so the caller knows
// to Record the job's runs.
func (p *Plane) Finish(id string, err error, profiles map[string]*prof.Profile) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if err != nil {
		p.failed++
		return false
	}
	if id != "" {
		if p.jobs[id] {
			return false
		}
		p.jobs[id] = true
	}
	for run, q := range profiles {
		if p.profiles[run] == nil {
			p.profiles[run] = &prof.Profile{}
		}
		p.profiles[run].Add(q)
	}
	return true
}

// registries returns the label → registry map /metrics exports.
func (p *Plane) registries() map[string]*obs.Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]*obs.Registry, len(p.runs))
	for label, r := range p.runs {
		out[label] = r.reg
	}
	return out
}

// Profiles returns a copy of the per-run-name profile sums, which later
// jobs keep adding to.
func (p *Plane) Profiles() map[string]*prof.Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]*prof.Profile, len(p.profiles))
	for run, q := range p.profiles {
		c := &prof.Profile{}
		c.Add(q) // deep copy: the sum keeps growing
		out[run] = c
	}
	return out
}

// progress returns the job counts /progress reports.
func (p *Plane) progress() Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	// A runner sweep's first event may arrive after its second (the runner
	// counts a job done before it takes the event lock), so done can pass
	// total for a moment.
	inflight := max(min(p.total-p.done, p.workers), 0)
	return Progress{TotalJobs: p.total, DoneJobs: p.done, InFlight: inflight, Failed: p.failed}
}

// WriteMetrics dumps every recorded run's registry snapshot at its end time
// as JSONL, in label order with each point tagged by its label, and writes
// m next to it at ManifestPath(path) with the recorded job IDs and the
// optimized runs' stage totals.
func (p *Plane) WriteMetrics(path string, m *Manifest) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	labels := make([]string, 0, len(p.runs))
	for label := range p.runs {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, label := range labels {
		r := p.runs[label]
		if err := obs.WriteRun(f, label, r.reg, r.until); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	for id := range p.jobs {
		m.Jobs = append(m.Jobs, id)
	}
	sort.Strings(m.Jobs)
	if q := p.profiles["optimized"]; q != nil {
		m.StageTotals = q.StageTotals()
	}
	return m.Write(ManifestPath(path))
}
