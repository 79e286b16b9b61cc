package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes a sweep.
type Options struct {
	// Workers is the pool size, the number of jobs in flight; 0 or
	// negative means GOMAXPROCS(0). It does not bound CPUs: each compare
	// job runs its three simulations concurrently (core.Compare), so one
	// job may keep up to three busy, and GOMAXPROCS caps the total.
	Workers int
	// OnJob, when set, is invoked once per finished job. Calls are
	// serialized (safe for terminal output) but their order follows
	// completion, which is not deterministic with more than one worker.
	OnJob func(ev JobEvent)
}

// JobEvent reports one finished job to Options.OnJob.
type JobEvent struct {
	ID     string
	Index  int // position in the input spec slice
	Worker int
	Done   int // jobs finished so far, this one included
	Total  int
	WallNS int64
	Err    error
	// Outcome is the finished job's full result, from which an observer
	// can keep the job's run registries and profiles as jobs complete.
	// OnJob calls are serialized, so reading it needs no extra locking.
	Outcome *JobOutcome
}

// Result is the outcome of a sweep.
type Result struct {
	// Outcomes is indexed exactly like the input spec slice, regardless of
	// which worker ran which job when — the property that makes a parallel
	// sweep's output indistinguishable from a sequential one.
	Outcomes []*JobOutcome
	Workers  int
	Wall     time.Duration
}

// Run executes every spec and returns the outcomes in input order.
// Individual job failures land in the corresponding outcome's Err (see
// Result.FirstError); Run itself errors only on malformed input, such as
// two specs normalizing to the same job ID — duplicates would make replay
// ambiguous.
func Run(specs []JobSpec, opt Options) (*Result, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) && len(specs) > 0 {
		workers = len(specs)
	}
	seen := make(map[string]int, len(specs))
	for i, s := range specs {
		id := s.ID()
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("runner: specs %d and %d share job ID %s", prev, i, id)
		}
		seen[id] = i
	}
	res := &Result{
		Outcomes: make([]*JobOutcome, len(specs)),
		Workers:  workers,
	}
	if len(specs) == 0 {
		return res, nil
	}

	// One shared cursor hands out the next unstarted job, so a worker that
	// finishes early simply takes more jobs.
	var (
		next atomic.Int64
		done atomic.Int64
		evMu sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				t0 := time.Now()
				out := specs[i].Execute()
				out.Worker = w
				out.WallNS = time.Since(t0).Nanoseconds()
				res.Outcomes[i] = out
				n := done.Add(1)
				if opt.OnJob != nil {
					evMu.Lock()
					opt.OnJob(JobEvent{
						ID:      out.ID,
						Index:   i,
						Worker:  w,
						Done:    int(n),
						Total:   len(specs),
						WallNS:  out.WallNS,
						Err:     out.Err,
						Outcome: out,
					})
					evMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res, nil
}

// FirstError returns the first failed job's error (in input order), or nil.
func (r *Result) FirstError() error {
	for _, o := range r.Outcomes {
		if o != nil && o.Err != nil {
			return fmt.Errorf("runner: job %s: %w", o.ID, o.Err)
		}
	}
	return nil
}
