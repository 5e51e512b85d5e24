// Package labd is the job-execution service over the scenario registry:
// the redesign of the lab's execution API from "function call in one
// process" to "job lifecycle behind a service". A Server owns a bounded
// worker pool, a submission queue, and an in-memory job store; each job
// is one scenario.RunSuite invocation (the same quick/timeout/parallel
// knobs labctl uses locally) moving through the states
//
//	queued → running → done | failed | canceled
//
// with its scenario.Report results attached on completion and a
// ring-buffered event log fed by the scenario.Env progress hook. The
// whole thing is exposed over a versioned HTTP/JSON API (see Handler and
// docs/labd-api.md): /v1/scenarios, /v1/jobs, /v1/jobs/{id},
// /v1/jobs/{id}/events (NDJSON streaming), and /v1/bench (append a
// benchmark-trajectory point from a finished job via benchstore).
// cmd/labd is the daemon; cmd/labctl's -addr flag drives the same
// run/suite/bench workflows against it remotely, and Client is the Go
// client both use.
package labd

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/scenario"
)

// State is a job's position in its lifecycle.
type State string

// The job state machine: Submit creates a job queued; a worker moves it
// to running; it terminates exactly once as done (every scenario
// succeeded), failed (pre-flight error or at least one scenario
// failed/skipped), or canceled (cancellation requested before the run
// finished).
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is a job submission: the same knobs as a local labctl
// suite/run invocation. An empty Scenarios list means every registered
// scenario.
type JobSpec struct {
	// Scenarios are the registered names to run, in order.
	Scenarios []string `json:"scenarios,omitempty"`
	// Quick selects each scenario's quick (smoke) configuration.
	Quick bool `json:"quick,omitempty"`
	// Parallel is the number of scenarios in flight within the job (≤ 1
	// serial); the server's worker pool bounds whole jobs, not scenarios.
	Parallel int `json:"parallel,omitempty"`
	// FailFast stops the job at the first scenario failure.
	FailFast bool `json:"failfast,omitempty"`
	// TimeoutSec bounds each scenario's wall-clock run (0 = none).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// ShardIndex/ShardCount restrict the job to a deterministic slice of
	// the suite (see scenario.Shard); ShardCount ≤ 1 disables sharding.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// Configs overlays per-scenario JSON onto the base configurations.
	Configs map[string]json.RawMessage `json:"configs,omitempty"`
}

// JobStatus is the wire view of one job.
type JobStatus struct {
	ID        string    `json:"id"`
	State     State     `json:"state"`
	Spec      JobSpec   `json:"spec"`
	CreatedAt time.Time `json:"created_at"`
	// StartedAt/FinishedAt are set once the job starts running and
	// reaches a terminal state, respectively.
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Error summarizes why the job failed or was canceled.
	Error string `json:"error,omitempty"`
	// Events is the next event sequence number (total events emitted).
	Events int `json:"events"`
	// Result is the suite result, present once the job is terminal (it
	// may be nil for a job canceled before running or failed pre-flight).
	Result *scenario.SuiteResult `json:"result,omitempty"`
	// RawResult preserves the server's exact result encoding; the client
	// fills it so artifacts can be written byte-identically to a local
	// run without a decode/re-encode round trip. Never marshaled.
	RawResult json.RawMessage `json:"-"`
}

// job is the server-side job record. Mutable fields are guarded by the
// server's mu; the ring has its own lock.
type job struct {
	id      string
	spec    JobSpec
	created time.Time
	ring    *ring

	state    State
	started  time.Time
	finished time.Time
	result   *scenario.SuiteResult
	errMsg   string
	canceled bool               // cancellation requested
	cancel   context.CancelFunc // non-nil while running
}

// Config tunes a Server. The zero value is usable: 2 workers, a
// 128-deep queue, 512-event rings, and no bench directory.
type Config struct {
	// Workers is the bounded pool size: at most this many jobs run
	// concurrently; the rest wait queued.
	Workers int
	// QueueLimit caps jobs waiting to run; a full queue rejects
	// submissions with ErrQueueFull rather than accepting unbounded work.
	QueueLimit int
	// EventBuffer is each job's event ring capacity: the last N events
	// are retained, older ones fall off (a late reader sees the gap in
	// the sequence numbers).
	EventBuffer int
	// BenchDir is the trajectory directory /v1/bench appends
	// BENCH_<n>.json points to; empty disables the endpoint.
	BenchDir string
	// Log receives operational lines; nil discards them.
	Log *log.Logger
}

// Errors the service maps to machine-readable API responses.
var (
	ErrQueueFull       = fmt.Errorf("labd: job queue is full")
	ErrDraining        = fmt.Errorf("labd: server is draining, not accepting jobs")
	ErrUnknownScenario = fmt.Errorf("labd: unknown scenario")
)

// Server owns the job store, the queue, and the worker pool.
type Server struct {
	cfg     Config
	logf    func(format string, args ...any)
	baseCtx context.Context
	abort   context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // wakes idle workers; signaled on submit/close
	queue    []*job     // FIFO of jobs waiting for a pool slot
	jobs     map[string]*job
	order    []string // submission order, for listing
	nextID   int
	draining bool
	closed   bool
	// execDelay pauses each job after it enters running, before its suite
	// executes — a fault-injection knob for fleet straggler testing.
	execDelay time.Duration

	benchMu sync.Mutex // serializes AppendDir numbering
}

// New starts a server and its worker pool. Call Close to shut it down.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueLimit < 1 {
		cfg.QueueLimit = 128
	}
	if cfg.EventBuffer < 1 {
		cfg.EventBuffer = 512
	}
	logf := func(string, ...any) {}
	if cfg.Log != nil {
		logf = cfg.Log.Printf
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		logf:    logf,
		baseCtx: ctx,
		abort:   cancel,
		jobs:    make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SetExecDelay makes every subsequent job pause for d after entering
// running, before its suite executes — an artificial per-job slowdown
// (cmd/labd -exec-delay) that lets fleet tests and CI model a slow
// machine. Zero disables it; cancellation cuts the pause short.
func (s *Server) SetExecDelay(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.execDelay = d
}

// Submit validates the spec, creates a queued job, and enqueues it.
// Unknown scenario names (in the list or the config overlay keys) are
// scenario lookup errors; a draining or full server returns ErrDraining
// or ErrQueueFull.
func (s *Server) Submit(spec JobSpec) (*JobStatus, error) {
	for _, name := range spec.Scenarios {
		if _, err := scenario.Lookup(name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownScenario, err)
		}
	}
	for name := range spec.Configs {
		if _, err := scenario.Lookup(name); err != nil {
			return nil, fmt.Errorf("%w: config overlay: %v", ErrUnknownScenario, err)
		}
	}
	if spec.ShardCount > 1 && (spec.ShardIndex < 0 || spec.ShardIndex >= spec.ShardCount) {
		return nil, fmt.Errorf("labd: shard index %d out of range [0,%d)", spec.ShardIndex, spec.ShardCount)
	}
	if spec.TimeoutSec < 0 {
		return nil, fmt.Errorf("labd: negative timeout")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueLimit {
		return nil, ErrQueueFull
	}
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%d", s.nextID),
		spec:    spec,
		created: time.Now().UTC(),
		ring:    newRing(s.cfg.EventBuffer),
		state:   StateQueued,
	}
	s.queue = append(s.queue, j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	j.ring.append(Event{Phase: "queued"})
	s.cond.Signal()
	s.logf("job %s queued: %d scenario(s), quick=%v", j.id, len(spec.Scenarios), spec.Quick)
	return s.statusLocked(j), nil
}

// Get returns one job's status, result included once terminal.
func (s *Server) Get(id string) (*JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return s.statusLocked(j), true
}

// List returns every job in submission order, as summaries: results are
// omitted (each may embed whole sample-series payloads, and a long-
// lived daemon accumulates jobs without bound — fetch one job for its
// result).
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.order))
	for _, id := range s.order {
		st := s.statusLocked(s.jobs[id])
		st.Result = nil
		out = append(out, st)
	}
	return out
}

// Cancel requests cancellation: a queued job terminates immediately, a
// running job has its context canceled and terminates as soon as its
// scenarios honor it. Canceling a terminal job is a no-op. The returned
// status reflects the state after the request.
func (s *Server) Cancel(id string) (*JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	switch j.state {
	case StateQueued:
		j.canceled = true
		s.dequeueLocked(j)
		s.finishLocked(j, StateCanceled, "canceled while queued", nil)
	case StateRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return s.statusLocked(j), true
}

// dequeueLocked removes a job from the waiting queue so a canceled job
// frees its QueueLimit slot immediately. Caller holds s.mu.
func (s *Server) dequeueLocked(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Events returns the job's buffered events after the given sequence
// number, a channel that signals when more arrive, and whether the
// stream is complete (the job is terminal and everything is delivered).
func (s *Server) Events(id string, after int) ([]Event, <-chan struct{}, bool, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false, false
	}
	evs, wait, done := j.ring.after(after)
	return evs, wait, done, true
}

// Drain stops accepting new submissions; queued and running jobs keep
// going. Use WaitIdle to find out when the last one finished.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.logf("draining: no new jobs accepted, %d in flight", s.pendingCount())
}

// pendingCount is the number of jobs not yet terminal.
func (s *Server) pendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.state.Terminal() {
			n++
		}
	}
	return n
}

// WaitIdle blocks until every submitted job is terminal or ctx expires.
func (s *Server) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.pendingCount() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close cancels every non-terminal job and stops the workers. The
// server rejects submissions afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.draining = true
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			j.canceled = true
			s.dequeueLocked(j)
			s.finishLocked(j, StateCanceled, "server shutting down", nil)
		case StateRunning:
			j.canceled = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.abort()
	s.wg.Wait()
}

// worker is one slot of the bounded pool: it pops the oldest waiting
// job, runs it, and sleeps on the cond when the queue is empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one job through scenario.RunSuite.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Canceled between dequeue and here; already terminal.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	delay := s.execDelay
	s.mu.Unlock()
	defer cancel()
	j.ring.append(Event{Phase: "running"})
	s.logf("job %s running", j.id)
	if delay > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
	}

	env := &scenario.Env{
		Quick: j.spec.Quick,
		Progress: func(ev scenario.Progress) {
			j.ring.append(Event{Scenario: ev.Scenario, Phase: ev.Phase, Message: ev.Message})
		},
	}
	res, err := scenario.RunSuite(ctx, j.spec.Scenarios, scenario.SuiteOptions{
		Parallel: j.spec.Parallel,
		Timeout:  time.Duration(j.spec.TimeoutSec * float64(time.Second)),
		FailFast: j.spec.FailFast,
		Quick:    j.spec.Quick,
		Configs:  j.spec.Configs,
		Shard:    scenario.Shard{Index: j.spec.ShardIndex, Count: j.spec.ShardCount},
		Env:      env,
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	switch {
	case j.canceled:
		s.finishLocked(j, StateCanceled, "canceled", res)
	case err != nil:
		s.finishLocked(j, StateFailed, err.Error(), nil)
	case res.Err() != nil:
		s.finishLocked(j, StateFailed, res.Err().Error(), res)
	default:
		s.finishLocked(j, StateDone, "", res)
	}
}

// finishLocked moves a job to a terminal state, emits the terminal
// event, and closes the ring so event followers complete. Caller holds
// s.mu.
func (s *Server) finishLocked(j *job, state State, errMsg string, res *scenario.SuiteResult) {
	j.state = state
	j.errMsg = errMsg
	j.result = res
	j.finished = time.Now().UTC()
	j.ring.append(Event{Phase: string(state), Message: errMsg})
	j.ring.close()
	s.logf("job %s %s%s", j.id, state, suffixIf(errMsg))
}

// suffixIf formats an optional ": msg" suffix.
func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// statusLocked snapshots a job's wire view. Caller holds s.mu.
func (s *Server) statusLocked(j *job) *JobStatus {
	st := &JobStatus{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		CreatedAt: j.created,
		Error:     j.errMsg,
		Events:    j.ring.nextSeq(),
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}
