package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/labd"
	"repro/internal/scenario"
)

// UnitRun records how one scenario-granular work unit was executed.
type UnitRun struct {
	// Scenario is the unit's single scenario.
	Scenario string
	// Index is the unit's position in Result.Names.
	Index int
	// Backend is the daemon that produced the accepted result; empty for
	// a unit drained under fail-fast.
	Backend string
	// JobID is the accepted job's id on that backend.
	JobID string
	// Attempts counts submissions, requeues included.
	Attempts int
	// Requeues lists the backends the unit was pulled back from, in
	// order, before an attempt was accepted.
	Requeues []string
	// Skipped marks a unit drained under fail-fast after an earlier
	// failure: it never ran and Result is nil, exactly like a skipped
	// outcome in a local fail-fast suite.
	Skipped bool
	// Result is the unit's single-outcome suite result.
	Result *scenario.SuiteResult
	// Raw preserves the daemon's exact result bytes for artifact
	// splicing (see MergeUnits).
	Raw json.RawMessage
}

// Straggler heuristics: a backend whose EWMA unit wall-time is at least
// stragglerFactor times a faster active backend's stands aside at the
// queue's tail for a bounded hold, so the fast backends drain the last
// units instead of one slow machine gating the suite.
const (
	ewmaAlpha       = 0.5
	stragglerFactor = 2.0
	minTailHold     = 5 * time.Millisecond
	maxTailHold     = 2 * time.Second
	maxBusyBackoff  = 8 // busy backoff cap, in multiples of RetryDelay
)

// stealer owns one dispatch: the work queue, the per-backend
// pullers, and the live fleet view (which backends have an active
// puller, their observed throughput, the re-probe loop that lets dead
// or late backends join mid-run).
type stealer struct {
	opts    Options
	names   []string
	q       *workQueue
	logf    func(string, ...any)
	onEvent func(Event)
	wg      *sync.WaitGroup

	mu      sync.Mutex
	active  map[string]bool    // backends with a live puller
	ewma    map[string]float64 // observed seconds per unit
	pullers int
}

// runSteal drains the suite through per-backend pullers over a shared
// unit queue. all is the full deduplicated fleet (re-probe candidates);
// live are the backends that passed the planning probe.
func runSteal(ctx context.Context, all, live []*backend, names []string, opts Options, logf func(string, ...any), onEvent func(Event)) ([]UnitRun, error) {
	var wg sync.WaitGroup
	d := &stealer{
		opts:    opts,
		names:   names,
		q:       newWorkQueue(names, opts.Spec.FailFast),
		logf:    logf,
		onEvent: onEvent,
		wg:      &wg,
		active:  make(map[string]bool),
		ewma:    make(map[string]float64),
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, b := range live {
		d.start(ctx, b)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.reprobe(ctx, all)
	}()
	select {
	case <-d.q.finished:
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()
	if err := d.q.err(); err != nil {
		return nil, err
	}
	return d.q.units, nil
}

// start spawns a puller for b unless one is already active. The wrapper
// bookkeeps the active set, and the last puller to exit with the queue
// unfinished fails the dispatch — nobody is left to pull the remainder.
func (d *stealer) start(ctx context.Context, b *backend) {
	d.mu.Lock()
	if d.active[b.addr] {
		d.mu.Unlock()
		return
	}
	d.active[b.addr] = true
	d.pullers++
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.pull(ctx, b)
		d.mu.Lock()
		d.active[b.addr] = false
		d.pullers--
		last := d.pullers == 0
		d.mu.Unlock()
		if last && ctx.Err() == nil {
			select {
			case <-d.q.finished:
			default:
				d.q.fail(fmt.Errorf("dispatch: no surviving backend to pull remaining units"))
			}
		}
	}()
}

// pull is one backend's work loop: take the next unit, run it as a
// single-scenario job, and either complete it or hand it back. A
// transport fault exits the puller (the backend is dead until a
// re-probe revives it); busy rejections (queue_full, draining) keep the
// puller alive but back it off exponentially so repeated rejections
// don't burn a unit's attempts while a healthy backend drains the
// queue.
func (d *stealer) pull(ctx context.Context, b *backend) {
	busyDelay := d.opts.RetryDelay
	for {
		u := d.q.take(ctx, func(pending int) time.Duration { return d.tailHold(b.addr, pending) })
		if u == nil || ctx.Err() != nil {
			return
		}
		u.attempts++
		slot := scenario.Shard{Index: u.index, Count: len(d.names)}
		start := time.Now()
		st, err := runUnitOn(ctx, b, d.unitSpec(u), slot, d.opts.RequestTimeout, d.onEvent)
		if err == nil {
			d.observe(b.addr, time.Since(start))
			busyDelay = d.opts.RetryDelay
			d.q.complete(u, UnitRun{
				Scenario: u.name,
				Index:    u.index,
				Backend:  b.addr,
				JobID:    st.ID,
				Attempts: u.attempts,
				Requeues: u.requeues,
				Result:   st.Result,
				Raw:      st.RawResult,
			})
			continue
		}
		if ctx.Err() != nil {
			d.q.requeue(u)
			return
		}
		fault, permanent := classify(err, st)
		if permanent {
			d.q.fail(fmt.Errorf("dispatch: scenario %s on %s: %w", u.name, b.addr, err))
			return
		}
		if u.attempts >= d.opts.MaxAttempts {
			d.q.fail(fmt.Errorf("dispatch: scenario %s: giving up after %d attempt(s), last backend %s: %w",
				u.name, u.attempts, b.addr, err))
			return
		}
		u.requeues = append(u.requeues, b.addr)
		d.q.requeue(u)
		if fault {
			d.logf("dispatch: backend %s faulted on %s, requeued (%v)", b.addr, u.name, err)
			return
		}
		d.logf("dispatch: backend %s busy, requeued %s (%v)", b.addr, u.name, err)
		select {
		case <-time.After(busyDelay):
		case <-ctx.Done():
			return
		}
		if busyDelay < maxBusyBackoff*d.opts.RetryDelay {
			busyDelay *= 2
		}
	}
}

// unitSpec derives the single-scenario job for one unit: the base spec
// narrowed to the unit's scenario, shard fields unset (a unit already
// is the slice), and the config overlay trimmed to the one entry the
// daemon will use.
func (d *stealer) unitSpec(u *unit) labd.JobSpec {
	spec := d.opts.Spec
	spec.Scenarios = []string{u.name}
	spec.ShardIndex, spec.ShardCount = 0, 0
	if raw, ok := spec.Configs[u.name]; ok {
		spec.Configs = map[string]json.RawMessage{u.name: raw}
	} else {
		spec.Configs = nil
	}
	return spec
}

// observe folds a completed unit's wall-time into the backend's EWMA.
func (d *stealer) observe(addr string, dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := dur.Seconds()
	if prev, ok := d.ewma[addr]; ok {
		s = ewmaAlpha*s + (1-ewmaAlpha)*prev
	}
	d.ewma[addr] = s
}

// tailHold decides whether a backend should stand aside instead of
// taking one of the queue's last units. It returns a positive hold when
// this backend's EWMA marks it a straggler relative to enough active
// backends to cover the pending tail; zero means take the unit now. The
// hold is the fastest such backend's EWMA — the expected wait for one
// to come free — clamped to [minTailHold, maxTailHold], and the queue
// spends it at most once per take, so the heuristic can delay a unit
// but never strand one.
func (d *stealer) tailHold(addr string, pending int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	mine, ok := d.ewma[addr]
	if !ok {
		return 0 // no samples yet: bootstrap by taking work
	}
	fastest := math.Inf(1)
	faster := 0
	for other, active := range d.active {
		if !active || other == addr {
			continue
		}
		e, ok := d.ewma[other]
		if !ok || mine < stragglerFactor*e {
			continue
		}
		faster++
		if e < fastest {
			fastest = e
		}
	}
	if faster == 0 || pending > faster {
		return 0
	}
	hold := time.Duration(fastest * float64(time.Second))
	if hold < minTailHold {
		hold = minTailHold
	}
	if hold > maxTailHold {
		hold = maxTailHold
	}
	return hold
}

// reprobe periodically health-checks every backend without an active
// puller — planning-time exclusions and mid-run deaths alike — and
// spawns a puller for each one that answers green, growing the plan
// live as backends join or recover.
func (d *stealer) reprobe(ctx context.Context, all []*backend) {
	tick := time.NewTicker(d.opts.ReprobeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-d.q.finished:
			return
		case <-tick.C:
		}
		for _, b := range all {
			d.mu.Lock()
			skip := d.active[b.addr]
			d.mu.Unlock()
			if skip {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, d.opts.ProbeTimeout)
			h, err := b.ctl.Health(pctx)
			cancel()
			if err != nil || !h.OK() {
				continue
			}
			d.logf("dispatch: backend %s healthy, joining the plan", b.addr)
			d.start(ctx, b)
		}
	}
}
