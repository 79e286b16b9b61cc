package sweepq

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"offchip/internal/runner"
)

// testFleetCommand builds a worker command running this test binary in the
// given fault mode.
func testFleetCommand(t *testing.T, mode string) func() *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(t.TempDir(), "fault-fired")
	return func() *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			"SWEEPQ_TEST_MODE="+mode, "SWEEPQ_TEST_MARKER="+marker)
		return cmd
	}
}

// TestFleetExecutesJobs is the happy path: jobs shipped to a real worker
// process come back with the same deterministic projection as in-process
// execution.
func TestFleetExecutesJobs(t *testing.T) {
	f, err := NewFleet(FleetConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec := runner.JobSpec{App: "apsi", Cap: 60}
	remote := f.Execute(spec)
	if remote.Err != nil {
		t.Fatalf("fleet execution failed: %v", remote.Err)
	}
	local := spec.Execute()
	want, _ := local.CanonicalJSON()
	got, err := remote.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet outcome diverged from local:\n got %s\nwant %s", got, want)
	}
}

// TestFleetAsRunnerExecutor runs a whole work-stealing sweep through the
// fleet and asserts the merged registry is identical to the in-process
// sweep's. (Host timing of sweeps is the benchmark's job: `bash bench/run.sh`,
// declared in BENCHMARK.json.)
func TestFleetAsRunnerExecutor(t *testing.T) {
	specs := []runner.JobSpec{
		{Mode: runner.ModeBaseline, App: "apsi", Cap: 60},
		{Mode: runner.ModeBaseline, App: "swim", Cap: 60},
		{Mode: runner.ModeBaseline, App: "mgrid", Interleave: "page", Cap: 60},
		{App: "gafort", Cap: 60},
	}
	local, err := runner.Run(specs, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(FleetConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	remote, err := runner.Run(specs, runner.Options{Workers: 2, Executor: f})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.FirstError(); err != nil {
		t.Fatal(err)
	}
	horizon := int64(1) << 40
	if !reflect.DeepEqual(local.Merged().Snapshot(horizon), remote.Merged().Snapshot(horizon)) {
		t.Fatal("merged registry differs between in-process and fleet execution")
	}
}

// failure-mode table: each row injects one worker fault and states what the
// server must do about it.
func TestServerWorkerFailureModes(t *testing.T) {
	job := runner.JobSpec{Mode: runner.ModeBaseline, App: "apsi", Cap: 60}.ID()
	for _, tc := range []struct {
		name       string
		mode       string
		timeout    time.Duration
		maxRetries int
		wantState  taskState
		check      func(t *testing.T, s *Server)
	}{
		{
			// Worker receives the job and dies before replying: the crash is
			// detected, the job requeues, and a respawned worker finishes it.
			name: "worker exit mid-job", mode: "exit-before-result",
			maxRetries: 3, wantState: taskDone,
			check: func(t *testing.T, s *Server) {
				if st := s.Stats(); st.Retries != 1 || st.Fleet.Crashes == 0 {
					t.Fatalf("want 1 retry and a recorded crash, got %+v", st)
				}
			},
		},
		{
			// Worker truncates its result frame and dies: same recovery path,
			// but through the framing error rather than a clean EOF.
			name: "truncated result frame", mode: "truncate-result",
			maxRetries: 3, wantState: taskDone,
			check: func(t *testing.T, s *Server) {
				if st := s.Stats(); st.Retries != 1 {
					t.Fatalf("want 1 retry, got %+v", st)
				}
			},
		},
		{
			// Worker delivers the same result twice: the duplicate is
			// discarded by the (id, attempt) tag and nothing double-merges.
			name: "duplicate result delivery", mode: "duplicate-result",
			maxRetries: 0, wantState: taskDone,
			check: func(t *testing.T, s *Server) {
				if st := s.Stats(); st.Retries != 0 || st.Failed != 0 {
					t.Fatalf("duplicate delivery caused retries or failures: %+v", st)
				}
			},
		},
		{
			// Worker stalls past JobTimeout: it is killed, the job requeues,
			// and the late result (if any) can never match the new attempt.
			name: "timeout then late result", mode: "sleep-before-result",
			timeout: 300 * time.Millisecond, maxRetries: 3, wantState: taskDone,
			check: func(t *testing.T, s *Server) {
				if st := s.Stats(); st.Fleet.TimeoutKills != 1 || st.Retries != 1 {
					t.Fatalf("want 1 timeout kill and 1 retry, got %+v", st)
				}
			},
		},
		{
			// Every worker dies on every attempt: retries exhaust and the job
			// fails without wedging the queue.
			name: "persistent crash exhausts retries", mode: "always-exit",
			maxRetries: 2, wantState: taskFailed,
			check: func(t *testing.T, s *Server) {
				if st := s.Stats(); st.Retries != 3 || st.Failed != 1 {
					t.Fatalf("want 3 retries then failure, got %+v", st)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServer(Config{
				StateDir:      t.TempDir(),
				Workers:       1,
				JobTimeout:    tc.timeout,
				MaxRetries:    tc.maxRetries,
				RetryBackoff:  10 * time.Millisecond,
				WorkerCommand: testFleetCommand(t, tc.mode),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Submit([]string{job}, 0); err != nil {
				t.Fatal(err)
			}
			s.Wait(0)
			s.mu.Lock()
			state := s.tasks[job].state
			s.mu.Unlock()
			if state != tc.wantState {
				t.Fatalf("job ended %q, want %q", state, tc.wantState)
			}
			tc.check(t, s)
		})
	}
}

// TestServerDeterministicJobErrorFailsFast: a job whose error is inherent
// to its ID (unknown app) must fail immediately, not burn retries.
func TestServerDeterministicJobErrorFailsFast(t *testing.T) {
	s, err := NewServer(Config{
		StateDir: t.TempDir(), Workers: 1, MaxRetries: 5,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := "j1:app=nosuchapp"
	if _, err := s.Submit([]string{bad}, 0); err != nil {
		t.Fatal(err)
	}
	if failed := s.Wait(0); failed != 1 {
		t.Fatalf("want 1 failed job, got %d", failed)
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Fatalf("deterministic failure consumed %d retries", st.Retries)
	}
}

// TestFinishIdempotent drives finish directly with a stale attempt and a
// post-completion duplicate — both must be counted and dropped.
func TestFinishIdempotent(t *testing.T) {
	s, err := NewServer(Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := runner.JobSpec{Mode: runner.ModeAnalyze, App: "apsi"}
	jr := ResultOf(spec.Execute())
	tk := &task{id: spec.ID(), shortID: spec.ShortID(), state: taskRunning}
	s.mu.Lock()
	s.tasks[tk.id] = tk
	s.mu.Unlock()

	s.finish(tk, 0, jr, nil)
	if tk.state != taskDone {
		t.Fatalf("first finish did not complete the task: %v", tk.state)
	}
	before := s.Merged().Snapshot(0)
	s.finish(tk, 0, jr, nil) // duplicate completion
	s.finish(tk, 1, jr, nil) // stale attempt
	if st := s.Stats(); st.DuplicateResults != 2 {
		t.Fatalf("want 2 duplicate results recorded, got %d", st.DuplicateResults)
	}
	if !reflect.DeepEqual(before, s.Merged().Snapshot(0)) {
		t.Fatal("duplicate completion mutated the merged registry")
	}
}
