package sweepq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"offchip/internal/runner"
)

// FleetConfig tunes a worker-process fleet.
type FleetConfig struct {
	// Workers is the number of worker processes; 0 or negative means 1.
	Workers int
	// CacheDir, when set, is the shared on-disk trace cache every job frame
	// points its worker at.
	CacheDir string
	// JobTimeout bounds one job's wall time on a worker; a worker that
	// blows it is killed (and the job reported as a transport failure, so
	// the caller may retry). 0 disables the bound.
	JobTimeout time.Duration
	// Command builds the worker command. nil re-executes the current
	// binary with WorkerEnv set — any binary calling MaybeWorker serves.
	Command func() *exec.Cmd
	// Stderr receives worker stderr; nil inherits the parent's.
	Stderr io.Writer
}

// FleetStats counts transport-level events. All fields are cumulative.
type FleetStats struct {
	Spawns       int64 `json:"spawns"`        // worker processes started (including replacements)
	TimeoutKills int64 `json:"timeout_kills"` // workers killed for blowing JobTimeout
	StaleResults int64 `json:"stale_results"` // frames discarded for a mismatched job/attempt tag
	Crashes      int64 `json:"crashes"`       // workers that died with a job in flight
}

// Fleet owns a pool of worker processes and dispatches jobs to them over
// the length-prefixed protocol. It implements runner.Executor, so a
// work-stealing sweep can run its jobs out-of-process by setting
// Options.Executor.
type Fleet struct {
	cfg  FleetConfig
	idle chan *workerProc

	mu     sync.Mutex
	procs  map[*workerProc]struct{}
	closed bool

	spawns       atomic.Int64
	timeoutKills atomic.Int64
	staleResults atomic.Int64
	crashes      atomic.Int64
}

// workerProc is one live worker process. The reader goroutine pumps result
// frames into results and closes dead (then results) when the stream ends,
// so Do can always distinguish "result", "worker died", and "timeout".
type workerProc struct {
	cmd       *exec.Cmd
	stdin     io.WriteCloser
	bw        *bufio.Writer
	results   chan resultFrame
	dead      chan struct{}
	readErr   error // valid after dead is closed
	broken    bool  // set by Do when the proc must not be reused
	drainOnce sync.Once
}

// drain discards any frames still flowing from an abandoned proc so its
// reader goroutine can reach the stream's end and reap the process. Only
// called once no Do will touch the proc again.
func (p *workerProc) drain() {
	p.drainOnce.Do(func() {
		go func() {
			for range p.results {
			}
		}()
	})
}

// NewFleet spawns the worker processes. Failing to spawn any worker fails
// the whole fleet — a sweep service with zero workers is misconfigured.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	f := &Fleet{
		cfg:   cfg,
		idle:  make(chan *workerProc, cfg.Workers),
		procs: map[*workerProc]struct{}{},
	}
	for i := 0; i < cfg.Workers; i++ {
		p, err := f.spawn()
		if err != nil {
			f.Close()
			return nil, err
		}
		f.idle <- p
	}
	return f, nil
}

// Stats snapshots the transport counters.
func (f *Fleet) Stats() FleetStats {
	return FleetStats{
		Spawns:       f.spawns.Load(),
		TimeoutKills: f.timeoutKills.Load(),
		StaleResults: f.staleResults.Load(),
		Crashes:      f.crashes.Load(),
	}
}

func (f *Fleet) spawn() (*workerProc, error) {
	var cmd *exec.Cmd
	if f.cfg.Command != nil {
		cmd = f.cfg.Command()
	} else {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("sweepq: locate own binary: %w", err)
		}
		cmd = exec.Command(self)
	}
	env := cmd.Env
	if env == nil {
		env = os.Environ()
	}
	cmd.Env = append(env, WorkerEnv+"=1")
	if f.cfg.Stderr != nil {
		cmd.Stderr = f.cfg.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("sweepq: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("sweepq: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("sweepq: start worker: %w", err)
	}
	f.spawns.Add(1)
	p := &workerProc{
		cmd:     cmd,
		stdin:   stdin,
		bw:      bufio.NewWriter(stdin),
		results: make(chan resultFrame, 4),
		dead:    make(chan struct{}),
	}
	f.mu.Lock()
	f.procs[p] = struct{}{}
	f.mu.Unlock()
	go func() {
		br := bufio.NewReader(stdout)
		for {
			var rf resultFrame
			if err := ReadFrame(br, &rf); err != nil {
				if err != io.EOF {
					p.readErr = err
				}
				close(p.dead)
				close(p.results)
				// Reap so a respawning fleet never accumulates zombies.
				_ = cmd.Wait()
				return
			}
			p.results <- rf
		}
	}()
	return p, nil
}

// kill force-terminates one proc; its reader goroutine observes the closed
// stream and reaps it.
func (p *workerProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	_ = p.stdin.Close()
}

// acquire takes an idle worker, resurrecting it if it died while idle.
func (f *Fleet) acquire() (*workerProc, error) {
	p := <-f.idle
	if p == nil {
		return nil, errors.New("sweepq: fleet has no spawnable workers")
	}
	select {
	case <-p.dead:
		return f.replaceLocked(p)
	default:
		return p, nil
	}
}

// release returns a worker to the pool, replacing it first if broken. The
// idle channel's capacity equals the worker count, so the send never
// blocks; a nil placeholder keeps capacity accounting intact when a
// replacement cannot be spawned (e.g. after Close or Kill).
func (f *Fleet) release(p *workerProc) {
	if p.broken {
		select {
		case <-p.dead:
		default:
			p.kill()
		}
		np, err := f.replaceLocked(p)
		if err != nil {
			f.idle <- nil
			return
		}
		f.idle <- np
		return
	}
	f.idle <- p
}

func (f *Fleet) replaceLocked(old *workerProc) (*workerProc, error) {
	f.mu.Lock()
	delete(f.procs, old)
	closed := f.closed
	f.mu.Unlock()
	old.drain()
	if closed {
		return nil, errors.New("sweepq: fleet closed")
	}
	return f.spawn()
}

// Do runs one job on the fleet: acquire a worker, send the tagged job
// frame, and wait for the matching result. Errors are transport-level
// (worker died, timeout, fleet closed) — the caller decides whether to
// retry; job-level failures come back inside the JobResult.
func (f *Fleet) Do(id string, attempt int) (*JobResult, error) {
	p, err := f.acquire()
	if err != nil {
		f.idle <- nil // keep capacity
		return nil, err
	}
	jr, err := f.do(p, id, attempt)
	f.release(p)
	return jr, err
}

func (f *Fleet) do(p *workerProc, id string, attempt int) (*JobResult, error) {
	if err := writeFlush(p.bw, jobFrame{ID: id, Attempt: attempt, CacheDir: f.cfg.CacheDir}); err != nil {
		p.broken = true
		f.crashes.Add(1)
		return nil, fmt.Errorf("sweepq: send job %s: %w", id, err)
	}
	var deadline <-chan time.Time
	if f.cfg.JobTimeout > 0 {
		t := time.NewTimer(f.cfg.JobTimeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		select {
		case rf, ok := <-p.results:
			if !ok {
				p.broken = true
				f.crashes.Add(1)
				return nil, fmt.Errorf("sweepq: worker exited with job %s in flight", id)
			}
			if rf.ID != id || rf.Attempt != attempt {
				// A duplicate or late frame from a previous assignment:
				// discard and keep waiting for ours. Tagging frames with
				// (id, attempt) is what makes this race harmless.
				f.staleResults.Add(1)
				continue
			}
			if rf.Err != "" {
				return nil, fmt.Errorf("sweepq: worker rejected job %s: %s", id, rf.Err)
			}
			if rf.Result == nil {
				return nil, fmt.Errorf("sweepq: worker sent empty result for job %s", id)
			}
			return rf.Result, nil
		case <-p.dead:
			p.broken = true
			f.crashes.Add(1)
			if p.readErr != nil {
				return nil, fmt.Errorf("sweepq: worker died on job %s: %v", id, p.readErr)
			}
			return nil, fmt.Errorf("sweepq: worker exited with job %s in flight", id)
		case <-deadline:
			p.broken = true
			f.timeoutKills.Add(1)
			p.kill()
			return nil, fmt.Errorf("sweepq: job %s exceeded the %v worker timeout", id, f.cfg.JobTimeout)
		}
	}
}

// Execute implements runner.Executor: the job ships to a worker process and
// the outcome is rebuilt from the wire form. Transport failures surface as
// the outcome's Err, exactly like an in-process panic would.
func (f *Fleet) Execute(spec runner.JobSpec) *runner.JobOutcome {
	n := spec.Normalized()
	jr, err := f.Do(n.ID(), 0)
	if err != nil {
		return &runner.JobOutcome{Spec: n, ID: n.ID(), ShortID: n.ShortID(), Err: err}
	}
	return jr.Outcome()
}

// Kill force-terminates every worker process immediately (SIGKILL) and
// leaves the fleet unusable — the crash-recovery test's hammer. Pending Do
// calls return transport errors.
func (f *Fleet) Kill() {
	f.mu.Lock()
	f.closed = true
	procs := make([]*workerProc, 0, len(f.procs))
	for p := range f.procs {
		procs = append(procs, p)
	}
	f.mu.Unlock()
	for _, p := range procs {
		p.kill()
		p.drain()
	}
}

// Close shuts the fleet down in an orderly way: close every worker's stdin
// (the protocol's EOF), give them a moment to exit, then kill stragglers.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	procs := make([]*workerProc, 0, len(f.procs))
	for p := range f.procs {
		procs = append(procs, p)
	}
	f.mu.Unlock()
	for _, p := range procs {
		_ = p.stdin.Close()
		p.drain()
	}
	for _, p := range procs {
		select {
		case <-p.dead:
		case <-time.After(2 * time.Second):
			p.kill()
			<-p.dead
		}
	}
}
