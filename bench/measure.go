package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"syscall"
	"time"

	"offchip/internal/runner"
	"offchip/internal/tracecache"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOptions is one benchmark run: a workload, the seed that orders its
// jobs, the measured duration, and whether the run is the traced one.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	cap      int // per-thread access cap: 0 (full traces), or selfTestCap
}

// setupReps is how many times a run sets up; setup_s is their median.
// Cold set-up is tens of milliseconds; a cached workload's set-up fills
// the trace cache and costs seconds, so it repeats fewer times.
func setupReps(w workload) int {
	if w.cached {
		return 3
	}
	return 7
}

// schedule is the closed-loop client: it issues jobs one at a time, each
// pass over the job list in an order drawn from the seed, and stops at
// the first job boundary after the budget once a full pass is done.
func schedule(n int, seed uint64, budget time.Duration, run func(i int)) {
	rng := rand.New(rand.NewPCG(seed, 0x6f6666636869702e))
	start := time.Now()
	for pass := 0; ; pass++ {
		for _, i := range rng.Perm(n) {
			if pass > 0 && time.Since(start) >= budget {
				return
			}
			run(i)
		}
	}
}

// ledger collects the outcomes of a run's job executions and checks each
// one: an error, a canonical output that differs from its pin (pinned
// workloads) or from an earlier execution of the same job, or a missing
// pinned exact reference fails the execution. Outcomes are not kept (a
// sampled outcome holds its traces); the first success of each job leaves
// a jobRecord.
type ledger struct {
	w    workload
	jobs []job
	pins map[string]pin
	recs []*jobRecord

	attempted, failed int
}

// jobRecord is what the metrics need from a job's outcome.
type jobRecord struct {
	sha           string
	exec          map[string]int64 // run name → ExecTime (a sampled run's estimate)
	runs, covered int              // runs, and runs whose estimate covers the exact time
	accesses      int64            // modelled trace accesses (full-trace count when sampled)
}

func newLedger(w workload, jobs []job, pins map[string]pin) *ledger {
	return &ledger{w: w, jobs: jobs, pins: pins, recs: make([]*jobRecord, len(jobs))}
}

// execute runs job i untraced through the runner and records it. It
// returns the outcome, or nil when the execution failed.
func (l *ledger) execute(i int) *runner.JobOutcome {
	l.attempted++
	res, err := runner.Run([]runner.JobSpec{l.jobs[i].spec}, runner.Options{Workers: 1})
	var out *runner.JobOutcome
	if err == nil {
		out = res.Outcomes[0]
		err = l.check(i, out)
	}
	if err != nil {
		l.fail(i, err)
		return nil
	}
	return out
}

func (l *ledger) fail(i int, err error) {
	l.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", l.jobs[i].spec.ID(), err)
}

func (l *ledger) check(i int, out *runner.JobOutcome) error {
	if out.Err != nil {
		return out.Err
	}
	sha, err := canonicalSHA(out)
	if err != nil {
		return err
	}
	if l.w.pinned {
		p, ok := l.pins[out.ID]
		if !ok {
			return fmt.Errorf("no pin in %s", pinsFile)
		}
		if p.SHA256 != sha {
			return fmt.Errorf("canonical output %s differs from pin %s", sha[:12], p.SHA256[:12])
		}
	}
	if rec := l.recs[i]; rec != nil {
		if sha != rec.sha {
			return fmt.Errorf("canonical output %s differs from the earlier execution's %s", sha[:12], rec.sha[:12])
		}
		return nil
	}
	ref, ok := l.pins[exactID(out.Spec)]
	if !ok {
		return fmt.Errorf("no pinned exact reference %s", exactID(out.Spec))
	}
	rec := &jobRecord{sha: sha, exec: out.ExecTimes}
	for run, t := range out.ExecTimes {
		rec.runs++
		if sr := out.Sampled[run]; sr != nil {
			rec.accesses += sr.FullAccesses
			if sr.Est.ExecTime.Within(float64(ref.Exec[run])) {
				rec.covered++
			}
			continue
		}
		rec.accesses += out.Observers[run].Reg.Sum("sim", "accesses")
		if t == ref.Exec[run] {
			rec.covered++
		}
	}
	l.recs[i] = rec
	return nil
}

// complete reports whether every job succeeded at least once, which the
// metrics below need.
func (l *ledger) complete() bool {
	for _, r := range l.recs {
		if r == nil {
			return false
		}
	}
	return true
}

// improvement is 100·(1 − t/base).
func improvement(base, t int64) float64 { return 100 * float64(base-t) / float64(base) }

// gain is job i's execution-time gain in percent, from the run times exec
// gives for a job: a compare job's optimized-vs-baseline improvement, or
// the job's improvement over the baseline job it names.
func (l *ledger) gain(i int, exec func(i int) map[string]int64) float64 {
	j := l.jobs[i]
	if j.base == -1 {
		ex := exec(i)
		return improvement(ex["baseline"], ex["optimized"])
	}
	run := "baseline"
	if j.spec.Mode == runner.ModeOptimized {
		run = "optimized"
	}
	return improvement(exec(j.base)["baseline"], exec(i)[run])
}

func (l *ledger) reported(i int) map[string]int64 { return l.recs[i].exec }

func (l *ledger) exact(i int) map[string]int64 { return l.pins[exactID(l.jobs[i].spec)].Exec }

// fidelity is the simulated-result side of a run.
type fidelity struct {
	gain      float64 // mean reported gain, %
	paperErr  float64 // distance of the exact paper-job averages from the paper, pp
	cover     float64 // share of runs whose reported time covers the exact one
	sampleErr float64 // mean |reported − exact| gain over sampled jobs, pp
}

func (l *ledger) fidelity() fidelity {
	var f fidelity
	var ng, runs, covered, nsampled int
	sum := map[string]float64{}
	cnt := map[string]int{}
	for i, j := range l.jobs {
		runs += l.recs[i].runs
		covered += l.recs[i].covered
		if j.paper {
			il := j.spec.Normalized().Interleave
			sum[il] += l.gain(i, l.exact)
			cnt[il]++
		}
		if !j.gain {
			continue
		}
		g, e := l.gain(i, l.reported), l.gain(i, l.exact)
		f.gain += g
		ng++
		if j.spec.Sample != "" {
			f.sampleErr += math.Abs(g - e)
			nsampled++
		}
	}
	f.gain /= float64(ng)
	for il, s := range sum {
		f.paperErr += math.Abs(s/float64(cnt[il])-paperGain[il]) / float64(len(sum))
	}
	f.cover = float64(covered) / float64(runs)
	if nsampled > 0 {
		f.sampleErr /= float64(nsampled)
	}
	return f
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupRepeated sets the workload up setupReps times from scratch, each
// followed by three probes that scale it, and keeps the last set-up. It
// returns the median scaled and unscaled set-up times.
func setupRepeated(w workload, cap int, pr *probe) ([]job, *tracecache.Cache, float64, float64, error) {
	var scaled, raw []float64
	var jobs []job
	var cache *tracecache.Cache
	for k := 0; k < setupReps(w); k++ {
		jobs, cache = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if jobs, cache, err = setup(w, cap, nil); err != nil {
			return nil, nil, 0, 0, err
		}
		t := time.Since(t0).Seconds()
		raw = append(raw, t)
		scaled = append(scaled, scale(t, median([]float64{pr.run(), pr.run(), pr.run()})))
	}
	return jobs, cache, median(scaled), median(raw), nil
}

// probeWindow is how many probes around an execution give its host speed:
// enough that one noisy probe does not move it, few enough to follow the
// host's drift within a run.
const probeWindow = 9

// localProbe is the probe time around probe k: the median of the probes
// in the window centred on k.
func localProbe(probes []float64, k int) float64 {
	lo, hi := k-probeWindow/2, k+probeWindow/2+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(probes) {
		hi = len(probes)
	}
	return median(probes[lo:hi])
}

// measure is the untraced run: it reports every end-to-end metric. Each
// job execution is followed by a probe, and its wall clock is scaled by
// the host speed around it.
func measure(o runOptions) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	pr := newProbe()
	jobs, _, setupS, rawSetup, err := setupRepeated(w, o.cap, pr)
	if err != nil {
		return nil, err
	}
	l := newLedger(w, jobs, pins)
	type timed struct {
		job   int
		wall  float64
		probe int
	}
	var timeline []timed
	var probes []float64
	schedule(len(jobs), o.seed, seconds(o.seconds), func(i int) {
		if out := l.execute(i); out != nil {
			timeline = append(timeline, timed{i, float64(out.WallNS) / 1e9, len(probes)})
		}
		probes = append(probes, pr.run())
	})
	r := &result{Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	if !l.complete() {
		return r, nil
	}
	// A run ends mid-pass, so some jobs execute once more than others;
	// each job's median wall is one sample of wall_s and job_p50_s, so
	// every job weighs the same. The tail is over every execution.
	perJob := make([][]float64, len(jobs))
	rawPerJob := make([][]float64, len(jobs))
	var execs, rawExecs []float64
	for _, t := range timeline {
		s := scale(t.wall, localProbe(probes, t.probe))
		perJob[t.job] = append(perJob[t.job], s)
		rawPerJob[t.job] = append(rawPerJob[t.job], t.wall)
		execs, rawExecs = append(execs, s), append(rawExecs, t.wall)
	}
	var wall, rawWall float64
	var accesses int64
	jobWalls := make([]float64, len(jobs))
	rawWalls := make([]float64, len(jobs))
	for i := range jobs {
		jobWalls[i], rawWalls[i] = median(perJob[i]), median(rawPerJob[i])
		wall += jobWalls[i]
		rawWall += rawWalls[i]
		accesses += l.recs[i].accesses
	}
	tailV, tailP := tail(execs)
	rawTail, _ := tail(rawExecs)
	f := l.fidelity()
	fmt.Printf("workload %s seed %d: %d executions of %d jobs; job_tail_s is p%.0f of the n=%d executions\n",
		w.name, o.seed, len(timeline), len(jobs), tailP, len(execs))
	// The host times before scaling, and the median probe they were scaled
	// by, so a record shows what the scaling did.
	unscaled, err := json.Marshal(map[string]float64{
		"wall_s": rawWall, "setup_s": rawSetup, "job_p50_s": median(rawWalls),
		"job_tail_s": rawTail, "probe_s": median(probes),
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s%s\n", unscaledPrefix, unscaled)
	m := r.Metrics
	m["wall_s"] = metric{wall, "s"}
	m["setup_s"] = metric{setupS, "s"}
	m["job_p50_s"] = metric{median(jobWalls), "s"}
	m["job_tail_s"] = metric{tailV, "s"}
	m["accesses_per_s"] = metric{float64(accesses) / wall, "accesses/s"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	m["exec_improvement_pct"] = metric{f.gain, "%"}
	m["paper_err_pp"] = metric{f.paperErr, "pp"}
	m["sample_fidelity_pp"] = metric{100 - f.sampleErr, "pp"}
	m["sample_cover_frac"] = metric{f.cover, "ratio"}
	r.Correct = l.failed == 0
	return r, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
