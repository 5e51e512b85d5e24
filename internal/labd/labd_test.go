package labd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// testScenario is a registry double driven by a run closure.
type testScenario struct {
	name string
	run  func(ctx context.Context, env *scenario.Env) (*scenario.Report, error)
}

func (s *testScenario) Name() string       { return s.name }
func (s *testScenario) Describe() string   { return "labd test scenario " + s.name }
func (s *testScenario) DefaultConfig() any { return struct{}{} }
func (s *testScenario) Run(ctx context.Context, env *scenario.Env, cfg any) (*scenario.Report, error) {
	if s.run == nil {
		rep := &scenario.Report{}
		rep.Metric("ok", 1)
		return rep, nil
	}
	return s.run(ctx, env)
}

// registered numbers the test scenarios: the global registry persists for
// the whole test binary and refuses duplicates, so a name must stay
// unique when -count or -cpu runs a test more than once.
var registered atomic.Int64

// register adds a uniquely named test scenario.
func register(t *testing.T, suffix string, run func(context.Context, *scenario.Env) (*scenario.Report, error)) *testScenario {
	t.Helper()
	name := fmt.Sprintf("%s-%s-%d", strings.ToLower(t.Name()), suffix, registered.Add(1))
	s := &testScenario{name: name, run: run}
	scenario.Register(s)
	return s
}

// newTestServer boots a Server plus its HTTP front and a client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestBoundedConcurrency submits many more jobs than workers and
// requires every one to finish while never observing more than the pool
// size in flight — the acceptance bar for the bounded pool.
func TestBoundedConcurrency(t *testing.T) {
	const workers, jobs = 3, 10
	var active, peak atomic.Int64
	entered := make(chan struct{}, jobs)
	release := make(chan struct{})
	sc := register(t, "load", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		n := active.Add(1)
		defer active.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Park until the test has observed a saturated pool, so the peak
		// is reached by construction instead of by sleeping and hoping the
		// scheduler overlapped the runs.
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		rep := &scenario.Report{}
		rep.Metric("ok", 1)
		return rep, nil
	})
	_, c := newTestServer(t, Config{Workers: workers})
	ctx := ctxT(t)

	ids := make([]string, jobs)
	for i := range ids {
		st, err := c.Submit(ctx, JobSpec{Scenarios: []string{sc.name}})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("fresh job state = %s", st.State)
		}
		ids[i] = st.ID
	}
	for i := 0; i < workers; i++ {
		select {
		case <-entered:
		case <-ctx.Done():
			t.Fatalf("pool never saturated: %d of %d runs entered", i, workers)
		}
	}
	close(release)
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			st, err := c.Wait(ctx, id, nil)
			if err != nil {
				t.Errorf("wait %s: %v", id, err)
				return
			}
			if st.State != StateDone {
				t.Errorf("job %s = %s (%s)", id, st.State, st.Error)
			}
			if st.Result == nil || len(st.Result.Reports()) != 1 {
				t.Errorf("job %s missing result", id)
			}
		}(id)
	}
	wg.Wait()
	if p := peak.Load(); p != workers {
		t.Errorf("observed %d concurrent scenario runs, pool is %d", p, workers)
	}
}

// TestCancelRunningJob cancels a job blocked mid-run and requires it to
// reach canceled promptly.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	sc := register(t, "block", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	st, err := c.Submit(ctx, JobSpec{Scenarios: []string{sc.name}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	cancelStart := time.Now()
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, nil)
	var jerr *JobError
	if !errors.As(err, &jerr) || jerr.State != StateCanceled {
		t.Fatalf("Wait err = %v, want *JobError canceled", err)
	}
	if final == nil || final.State != StateCanceled {
		t.Fatalf("state = %v, want canceled", final)
	}
	if d := time.Since(cancelStart); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	// Canceling a terminal job is an idempotent no-op.
	again, err := c.Cancel(ctx, st.ID)
	if err != nil || again.State != StateCanceled {
		t.Errorf("re-cancel: %v, %v", again, err)
	}
}

// TestCancelQueuedJob cancels a job still waiting behind a busy pool.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	blocker := register(t, "hog", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &scenario.Report{}, nil
	})
	quick := register(t, "quick", nil)
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	hog, err := c.Submit(ctx, JobSpec{Scenarios: []string{blocker.name}})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := c.Submit(ctx, JobSpec{Scenarios: []string{quick.name}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued victim = %s, want canceled", st.State)
	}
	close(release)
	if st, err := c.Wait(ctx, hog.ID, nil); err != nil || st.State != StateDone {
		t.Fatalf("hog: %v %v", st, err)
	}
}

// TestEventStream checks both delivery modes: the complete buffered log
// of a finished job, and follow-mode streaming that ends at the
// terminal state, with scenario progress events stamped and ordered.
func TestEventStream(t *testing.T) {
	sc := register(t, "phases", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		env.Phasef("warmup", "settling")
		env.Logf("halfway there")
		rep := &scenario.Report{}
		rep.Metric("ok", 1)
		return rep, nil
	})
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	st, err := c.Submit(ctx, JobSpec{Scenarios: []string{sc.name}})
	if err != nil {
		t.Fatal(err)
	}

	// Follow the stream live: it must terminate on its own.
	var live []Event
	if _, err = c.Wait(ctx, st.ID, func(ev Event) { live = append(live, ev) }); err != nil {
		t.Fatal(err)
	}

	// Re-read the finished job's buffer without follow.
	var replay []Event
	if err := c.StreamEvents(ctx, st.ID, -1, false, func(ev Event) error {
		replay = append(replay, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, evs := range [][]Event{live, replay} {
		var phases []string
		for _, ev := range evs {
			phases = append(phases, ev.Phase)
		}
		got := strings.Join(phases, ",")
		want := "queued,running,start,warmup,log,done,done"
		if got != want {
			t.Errorf("phases = %s, want %s", got, want)
		}
		for i, ev := range evs {
			if ev.Seq != i {
				t.Errorf("event %d has seq %d", i, ev.Seq)
			}
		}
		// Scenario progress events carry the scenario name; job lifecycle
		// events do not.
		if evs[3].Scenario != sc.name || evs[3].Message != "settling" {
			t.Errorf("warmup event = %+v", evs[3])
		}
		if evs[0].Scenario != "" || evs[len(evs)-1].Scenario != "" {
			t.Errorf("job lifecycle events stamped with a scenario: %+v", evs)
		}
	}

	// since=N resumes mid-stream.
	var tail []Event
	if err := c.StreamEvents(ctx, st.ID, 4, false, func(ev Event) error {
		tail = append(tail, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(replay)-5 {
		t.Errorf("since=4 returned %d events, want %d", len(tail), len(replay)-5)
	}
}

// TestUnknownScenario404 requires the machine-readable error envelope.
func TestUnknownScenario404(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	_, err := c.Submit(ctx, JobSpec{Scenarios: []string{"no-such-scenario"}})
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %v (%T), want *APIError", err, err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != CodeUnknownScenario {
		t.Errorf("got HTTP %d code %q, want 404 %q", apiErr.Status, apiErr.Code, CodeUnknownScenario)
	}
	if !strings.Contains(apiErr.Message, "no-such-scenario") {
		t.Errorf("message %q does not name the scenario", apiErr.Message)
	}
	// Unknown config overlay key: same contract.
	sc := register(t, "cfg", nil)
	_, err = c.Submit(ctx, JobSpec{
		Scenarios: []string{sc.name},
		Configs:   map[string]json.RawMessage{"also-missing": json.RawMessage(`{}`)},
	})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Code != CodeUnknownScenario {
		t.Errorf("config overlay err = %v", err)
	}
	// Unknown job id on the other routes.
	if _, err := c.Job(ctx, "j999"); err == nil {
		t.Error("fetching unknown job succeeded")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Code != CodeNotFound {
		t.Errorf("unknown job err = %v", err)
	}
}

// TestScenarioEndpoints covers the registry routes.
func TestScenarioEndpoints(t *testing.T) {
	sc := register(t, "listme", nil)
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	infos, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		if info.Name == sc.name {
			found = true
			if info.Description != sc.Describe() {
				t.Errorf("description = %q", info.Description)
			}
		}
	}
	if !found {
		t.Fatalf("scenario %s not listed", sc.name)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Errorf("health = %+v, %v", h, err)
	}
}

// TestBenchEndpoint appends two trajectory points from finished jobs.
func TestBenchEndpoint(t *testing.T) {
	release := make(chan struct{})
	sc := register(t, "bench", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		<-release
		rep := &scenario.Report{}
		rep.Metric("ok", 1)
		return rep, nil
	})
	dir := t.TempDir()
	_, c := newTestServer(t, Config{Workers: 1, BenchDir: dir})
	ctx := ctxT(t)

	st, err := c.Submit(ctx, JobSpec{Scenarios: []string{sc.name}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Benching a non-terminal job is a conflict.
	if _, err := c.Bench(ctx, BenchRequest{JobID: st.ID}); err == nil {
		t.Error("bench of unfinished job succeeded")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Code != CodeJobNotDone {
		t.Errorf("bench-too-early err = %v", err)
	}
	close(release)
	if _, err := c.Wait(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := c.Bench(ctx, BenchRequest{JobID: st.ID, Label: "t"})
		if err != nil {
			t.Fatal(err)
		}
		want := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", i))
		if resp.Path != want {
			t.Errorf("bench %d path = %s, want %s", i, resp.Path, want)
		}
		if _, err := os.Stat(want); err != nil {
			t.Errorf("snapshot not on disk: %v", err)
		}
		if !resp.Snapshot.Quick || resp.Snapshot.Scenarios[sc.name]["ok"] != 1 {
			t.Errorf("snapshot = %+v", resp.Snapshot)
		}
	}
}

// TestOversizedBodies413 posts a 2 MiB body to both POST routes: each is
// refused with 413 body_too_large, and the next normal job still runs.
func TestOversizedBodies413(t *testing.T) {
	s := New(Config{Workers: 1, BenchDir: t.TempDir()})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := ctxT(t)
	sc := register(t, "after", nil)

	// Whitespace is valid JSON padding, so only the size is wrong.
	body := strings.Repeat(" ", 2<<20) + `{"scenarios":["` + sc.name + `"]}`
	for _, route := range []string{"/v1/jobs", "/v1/bench"} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding error body: %v", route, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Code != CodeBodyTooLarge {
			t.Errorf("%s: HTTP %d code %q, want 413 %q", route, resp.StatusCode, eb.Error.Code, CodeBodyTooLarge)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("oversized submission created %d jobs", n)
	}

	st, err := c.Submit(ctx, JobSpec{Scenarios: []string{sc.name}})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID, nil); err != nil || final.State != StateDone {
		t.Fatalf("job after the refusals: %v, %v", final, err)
	}
}

// TestQueueLimitAndDrain covers the two 503 paths.
func TestQueueLimitAndDrain(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocker := register(t, "full", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &scenario.Report{}, nil
	})
	s, c := newTestServer(t, Config{Workers: 1, QueueLimit: 2})
	ctx := ctxT(t)
	// Fill: 2 slots in queue (the worker drains one, so up to 3 succeed).
	var lastErr error
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(ctx, JobSpec{Scenarios: []string{blocker.name}}); err != nil {
			lastErr = err
			break
		}
	}
	apiErr, ok := lastErr.(*APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeQueueFull {
		t.Errorf("queue-full err = %v", lastErr)
	}

	s.Drain()
	_, err := c.Submit(ctx, JobSpec{Scenarios: []string{blocker.name}})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Code != CodeDraining {
		t.Errorf("draining err = %v", err)
	}
}

// TestCanceledQueuedJobFreesSlot: canceling queued jobs must release
// their QueueLimit slots immediately, not only when a worker eventually
// pops the dead entries.
func TestCanceledQueuedJobFreesSlot(t *testing.T) {
	const limit = 2
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	hog := register(t, "hog", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &scenario.Report{}, nil
	})
	filler := register(t, "filler", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &scenario.Report{}, nil
	})
	_, c := newTestServer(t, Config{Workers: 1, QueueLimit: limit})
	ctx := ctxT(t)

	// Occupy the one worker, then fill every queue slot.
	if _, err := c.Submit(ctx, JobSpec{Scenarios: []string{hog.name}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("hog never started")
	}
	queued := make([]string, limit)
	for i := range queued {
		st, err := c.Submit(ctx, JobSpec{Scenarios: []string{filler.name}})
		if err != nil {
			t.Fatal(err)
		}
		queued[i] = st.ID
	}
	if _, err := c.Submit(ctx, JobSpec{Scenarios: []string{filler.name}}); err == nil {
		t.Fatal("queue should be full")
	}
	for _, id := range queued {
		if st, err := c.Cancel(ctx, id); err != nil || st.State != StateCanceled {
			t.Fatalf("cancel %s: %v %v", id, st, err)
		}
	}
	// Every canceled slot is free again — the worker is still busy, so
	// nothing was drained by it.
	for range queued {
		if _, err := c.Submit(ctx, JobSpec{Scenarios: []string{filler.name}}); err != nil {
			t.Fatalf("submit after cancels: %v", err)
		}
	}
}

// TestWaitSurfacesFailure: Wait's error for a failed job must carry the
// job's failure message itself — callers should not have to re-fetch the
// job to learn why it failed — while still returning the final status
// with the per-scenario outcomes attached.
func TestWaitSurfacesFailure(t *testing.T) {
	sc := register(t, "boom", func(ctx context.Context, env *scenario.Env) (*scenario.Report, error) {
		return nil, fmt.Errorf("the flux capacitor jammed")
	})
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := ctxT(t)
	st, err := c.Submit(ctx, JobSpec{Scenarios: []string{sc.name}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, nil)
	var jerr *JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("Wait err = %v (%T), want *JobError", err, err)
	}
	if jerr.State != StateFailed || jerr.ID != st.ID {
		t.Errorf("JobError = %+v", jerr)
	}
	if !strings.Contains(jerr.Message, "flux capacitor") || !strings.Contains(jerr.Error(), "flux capacitor") {
		t.Errorf("failure message not surfaced: %q / %q", jerr.Message, jerr.Error())
	}
	if final == nil || final.State != StateFailed || final.Result == nil {
		t.Errorf("final status missing outcomes: %+v", final)
	}
}
