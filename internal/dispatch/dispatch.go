// Package dispatch fans one suite/bench request out across a fleet of
// labd backends — the cross-machine step of the benchmark-trajectory
// seam — so the suite's wall clock scales with hardware instead of with
// scenario count.
//
// The life of one dispatch:
//
//	probe    every backend's /v1/healthz (bounded per-probe budget);
//	         dead or draining backends are excluded at planning time
//	queue    the resolved suite becomes a dispatcher-side queue of
//	         scenario-granular units — one scenario per unit — and each
//	         live backend gets a puller goroutine draining it
//	pull     a puller takes the next unit and submits it as a
//	         single-scenario job via labd.Client, streaming and
//	         multiplexing every job's progress events into one ordered
//	         callback; fast backends simply take more units, and a
//	         straggler (EWMA of unit wall-time ≥ 2× a faster peer's)
//	         briefly stands aside at the queue's tail so it never gates
//	         the suite
//	requeue  a backend that dies mid-run (connection failure) or turns
//	         work away (503 queue_full / draining) spills back exactly
//	         its in-flight unit — never a multi-scenario slice — and the
//	         re-probe tick lets excluded, recovered, or late backends
//	         join the plan while it runs; scenario-level failures are
//	         results, not backend faults, and are never retried
//	merge    the per-unit results reassemble into the exact result a
//	         single-process run would have produced (MergeUnits),
//	         refusing overlaps, gaps, and quick/full mixes
//
// cmd/labctl's -addrs/-addrs-file flags drive this for run/suite/bench
// with the same artifacts and exit codes as single-backend -addr mode;
// the dispatchtest subpackage is the in-process multi-labd cluster (with
// per-backend fault injection) that the e2e tests and CI reuse.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/labd"
	"repro/internal/scenario"
)

// Options tunes one dispatch. Spec is the only required field; the
// dispatcher owns the shard fields (a caller-set shard slice is
// rejected — the fleet divides the suite itself, one scenario at a time).
type Options struct {
	// Spec is the base job every unit derives from: scenarios, quick,
	// parallel, failfast, timeout, configs. ShardIndex/ShardCount must be
	// zero.
	Spec labd.JobSpec
	// ProbeTimeout bounds each backend's health probe (default 3s).
	ProbeTimeout time.Duration
	// RequestTimeout bounds control calls — submit, status, cancel — so a
	// hung backend surfaces as a fault instead of a stall (default 30s).
	// Event streams are exempt: a unit legitimately runs for a long time.
	RequestTimeout time.Duration
	// RetryDelay is the pause before a backend that turned work away
	// pulls again — the base of the exponential busy backoff (default
	// 250ms).
	RetryDelay time.Duration
	// MaxAttempts caps submissions per unit. The default is 2 × the
	// backends that pass the planning probe — derived from the live fleet,
	// not the address list, so a 10-address fleet with one survivor does
	// not retry 20× against the lone backend.
	MaxAttempts int
	// ReprobeInterval paces the health re-probe that lets excluded or
	// mid-run-dead backends join the plan live (default 1s).
	ReprobeInterval time.Duration
	// OnEvent receives every job's progress events, serialized (never
	// concurrently); nil discards them.
	OnEvent func(Event)
	// Logf receives dispatcher operational lines (planning, requeues);
	// nil discards them.
	Logf func(format string, args ...any)
}

// Event is one multiplexed progress event, stamped with where it ran.
type Event struct {
	// Backend is the normalized address of the daemon that emitted it.
	Backend string
	// Shard is the slot the event belongs to: unit-index/suite-size.
	Shard scenario.Shard
	// Event is the underlying labd progress event.
	Event labd.Event
}

// Result is one complete dispatch.
type Result struct {
	// Names is the full resolved suite order the units cover.
	Names []string
	// Suite is the merged result, outcome order identical to a
	// single-process run over Names.
	Suite *scenario.SuiteResult
	// Raw is the merged result spliced from the units' exact report
	// bytes, so artifacts stay byte-identical to single-backend runs.
	Raw json.RawMessage
	// Units are the scenario-granular unit runs, ordered by suite index.
	Units []UnitRun
	// Excluded lists backends dropped at planning time (dead or
	// draining), in probe order.
	Excluded []string
}

// backend is one daemon with its two client views: control calls carry
// a request timeout so a hung backend is a fault, the stream client has
// none so long-running jobs can be followed indefinitely.
type backend struct {
	addr   string
	ctl    *labd.Client
	stream *labd.Client
}

// Run dispatches one suite across the backends at addrs and returns the
// merged result. It fails (rather than returning a partial result) when
// no backend is healthy, a unit exhausts its attempts, the
// spec is rejected, or the merge invariants are violated; scenario-level
// failures are not errors — they surface in the merged SuiteResult
// exactly as a local run's would.
func Run(ctx context.Context, addrs []string, opts Options) (*Result, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dispatch: no backends given")
	}
	if opts.Spec.ShardCount != 0 || opts.Spec.ShardIndex != 0 {
		return nil, fmt.Errorf("dispatch: the dispatcher owns the shard slice; spec must not set one")
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 3 * time.Second
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.RetryDelay <= 0 {
		opts.RetryDelay = 250 * time.Millisecond
	}
	if opts.ReprobeInterval <= 0 {
		opts.ReprobeInterval = time.Second
	}
	// Both callbacks fire from concurrent puller goroutines and callers
	// routinely point them at the same writer (labctl -v), so one mutex
	// serializes them together.
	var cbMu sync.Mutex
	logf := func(string, ...any) {}
	if opts.Logf != nil {
		hook := opts.Logf
		logf = func(format string, args ...any) {
			cbMu.Lock()
			defer cbMu.Unlock()
			hook(format, args...)
		}
	}
	onEvent := func(Event) {}
	if opts.OnEvent != nil {
		hook := opts.OnEvent
		onEvent = func(ev Event) {
			cbMu.Lock()
			defer cbMu.Unlock()
			hook(ev)
		}
	}

	backends, err := newBackends(addrs, opts.RequestTimeout)
	if err != nil {
		return nil, err
	}

	// Probe: only backends that answer /v1/healthz and are not draining
	// get a puller.
	live, excluded := probe(ctx, backends, opts.ProbeTimeout)
	for _, ex := range excluded {
		logf("dispatch: excluding %s at planning time: %s", ex.addr, ex.reason)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("dispatch: no healthy backend among %d probed", len(backends))
	}
	if opts.MaxAttempts <= 0 {
		// Derived from the live fleet, after probing: the default budget
		// scales with backends that can actually take work.
		opts.MaxAttempts = 2 * len(live)
	}

	// Resolve the full suite order. An explicit scenario list is taken as
	// given; an empty one means the registry, fetched from a live backend
	// so the partition reflects what the fleet actually serves.
	names := opts.Spec.Scenarios
	if len(names) == 0 {
		if names, err = fleetNames(ctx, live); err != nil {
			return nil, err
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("dispatch: the fleet serves no scenarios")
	}

	logf("dispatch: %d scenario(s) as work units over %d live backend(s), %d excluded",
		len(names), len(live), len(excluded))
	units, err := runSteal(ctx, backends, live, names, opts, logf, onEvent)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	suite, raw, err := MergeUnits(names, units)
	if err != nil {
		return nil, err
	}
	res := &Result{Names: names, Suite: suite, Raw: raw, Units: units}
	for _, ex := range excluded {
		res.Excluded = append(res.Excluded, ex.addr)
	}
	return res, nil
}

// newBackends normalizes and deduplicates the address list.
func newBackends(addrs []string, reqTimeout time.Duration) ([]*backend, error) {
	out := make([]*backend, 0, len(addrs))
	seen := make(map[string]bool)
	for _, addr := range addrs {
		c := labd.NewClient(addr)
		if seen[c.BaseURL] {
			return nil, fmt.Errorf("dispatch: backend %s listed twice", c.BaseURL)
		}
		seen[c.BaseURL] = true
		out = append(out, &backend{
			addr:   c.BaseURL,
			ctl:    &labd.Client{BaseURL: c.BaseURL, HTTPClient: &http.Client{Timeout: reqTimeout}},
			stream: c,
		})
	}
	return out, nil
}

// excludedBackend records a planning-time exclusion.
type excludedBackend struct {
	addr   string
	reason string
}

// probe health-checks every backend concurrently and splits the fleet
// into live and excluded, preserving input order.
func probe(ctx context.Context, backends []*backend, timeout time.Duration) ([]*backend, []excludedBackend) {
	type verdict struct {
		ok     bool
		reason string
	}
	verdicts := make([]verdict, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			h, err := b.ctl.Health(pctx)
			switch {
			case err != nil:
				verdicts[i] = verdict{reason: fmt.Sprintf("health probe: %v", err)}
			case !h.OK():
				verdicts[i] = verdict{reason: fmt.Sprintf("status %q, draining=%v", h.Status, h.Draining)}
			default:
				verdicts[i] = verdict{ok: true}
			}
		}(i, b)
	}
	wg.Wait()
	var live []*backend
	var excluded []excludedBackend
	for i, b := range backends {
		if verdicts[i].ok {
			live = append(live, b)
		} else {
			excluded = append(excluded, excludedBackend{addr: b.addr, reason: verdicts[i].reason})
		}
	}
	return live, excluded
}

// fleetNames resolves the full registry order from the first live
// backend that answers, mirroring scenario.Names()'s sorted order.
func fleetNames(ctx context.Context, live []*backend) ([]string, error) {
	var lastErr error
	for _, b := range live {
		infos, err := b.ctl.Scenarios(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		names := make([]string, 0, len(infos))
		for _, info := range infos {
			names = append(names, info.Name)
		}
		sort.Strings(names)
		return names, nil
	}
	return nil, fmt.Errorf("dispatch: listing fleet scenarios: %w", lastErr)
}

// runUnitOn submits one unit's job to one backend and waits it out;
// slot stamps the unit's events. A scenario-failed job (result attached)
// is an accepted outcome — the failure belongs in the merged suite
// result, same as a local run; every other non-done ending is an error
// for the caller to classify. On any non-terminal exit (interrupt, wedged
// or partitioned backend) the job is canceled best-effort — without
// blocking the requeue on a dead host — so the same unit does not keep
// executing on two backends at once.
func runUnitOn(ctx context.Context, b *backend, spec labd.JobSpec, slot scenario.Shard, reqTimeout time.Duration, onEvent func(Event)) (*labd.JobStatus, error) {
	st, err := b.ctl.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	final, err := waitUnit(ctx, b, st.ID, slot, onEvent)
	var jerr *labd.JobError
	if errors.As(err, &jerr) {
		// The job is terminal on the backend; nothing to cancel. Failed
		// with outcomes attached is a result, not a fault.
		if jerr.State == labd.StateFailed && final != nil && final.Result != nil {
			return final, nil
		}
		return final, err
	}
	if err != nil {
		go func() {
			cctx, stop := context.WithTimeout(context.Background(), reqTimeout)
			defer stop()
			_, _ = b.ctl.Cancel(cctx, st.ID)
		}()
		if ctx.Err() != nil {
			return final, ctx.Err()
		}
		return final, err
	}
	return final, nil
}

const (
	// pollInterval paces the authoritative job-status polls while a
	// unit runs.
	pollInterval = 250 * time.Millisecond
	// streamRetryDelay paces event-stream reconnects after a break.
	streamRetryDelay = 250 * time.Millisecond
)

// waitUnit blocks until the job is terminal and returns its final
// status — *labd.JobError for a failed/canceled ending, mirroring
// labd.Client.Wait. Unlike Wait, the authoritative status polls run on
// the timed control client while the untimed stream client only feeds
// events best-effort in the background: a backend that accepts a unit
// and then wedges surfaces as a poll timeout (a requeueable fault)
// instead of stalling the dispatch behind a hung event stream.
// A closed follow stream usually means the job just went terminal, so
// it kicks an immediate status poll instead of sleeping out the
// interval — per-unit completion latency is what paces a dispatch, not
// job runtime.
func waitUnit(ctx context.Context, b *backend, id string, slot scenario.Shard, onEvent func(Event)) (*labd.JobStatus, error) {
	sctx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		since := -1
		for {
			err := b.stream.StreamEvents(sctx, id, since, true, func(ev labd.Event) error {
				since = ev.Seq
				onEvent(Event{Backend: b.addr, Shard: slot, Event: ev})
				return nil
			})
			if err == nil || sctx.Err() != nil {
				// The follow stream ended at the terminal state, or the
				// wait is over.
				return
			}
			select {
			case <-time.After(streamRetryDelay):
			case <-sctx.Done():
				return
			}
		}
	}()
	kick := streamDone
	for {
		st, err := b.ctl.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			// Let the event stream drain its tail so -v output is complete,
			// but never stall a finished unit behind a broken stream.
			select {
			case <-streamDone:
			case <-time.After(2 * pollInterval):
			}
			if st.State != labd.StateDone {
				return st, &labd.JobError{ID: st.ID, State: st.State, Message: st.Error}
			}
			return st, nil
		}
		select {
		case <-time.After(pollInterval):
		case <-kick:
			// One immediate poll per stream close; the interval paces any
			// retries after it (a nil channel never fires).
			kick = nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// classify sorts a unit attempt's error into backend faults (requeue
// and stop using the backend), busy signals (requeue, backend may
// recover), and permanent errors (the same spec would fail anywhere —
// abort the dispatch). Returns (markDead, permanent).
func classify(err error, st *labd.JobStatus) (bool, bool) {
	var apiErr *labd.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case labd.CodeQueueFull, labd.CodeDraining:
			// Busy, not dead: requeue elsewhere, maybe come back.
			return false, false
		case labd.CodeUnknownScenario, labd.CodeBadRequest:
			// Spec-level rejection: retrying elsewhere would fail
			// identically.
			return false, true
		default:
			// not_found (the daemon restarted and lost its job store),
			// internal, or a proxy's non-envelope 5xx: the backend is
			// unreliable — requeue like a transport death.
			return true, false
		}
	}
	var jerr *labd.JobError
	if errors.As(err, &jerr) {
		// A job that failed with no suite result died pre-flight on a spec
		// the server accepted — config decode errors are deterministic, so
		// this is permanent. A canceled job means someone killed it on the
		// daemon out from under us: treat the backend as suspect.
		if jerr.State == labd.StateFailed {
			return false, st == nil || st.Result == nil
		}
		return true, false
	}
	// Transport-level failure: connection refused/reset, timeout — the
	// backend is gone or wedged.
	return true, false
}
