package dispatch

import (
	"context"
	"sync"
	"time"
)

// unit is one scenario-granular work item: the atom of a dispatch. A
// unit requeues as a whole when its backend faults, so a dead backend
// re-spills exactly the scenario it was running — never a
// multi-scenario slice.
type unit struct {
	index    int // position in the resolved suite order
	name     string
	attempts int      // submissions, requeues included
	requeues []string // backends that faulted this unit away
}

// workQueue is the dispatcher-side queue the pullers drain. It
// tracks three unit populations — pending (available to take),
// in-flight (held by a puller), and finished — and completes when every
// unit is finished or a fatal error poisons the dispatch.
//
// Lock order: workQueue.mu may be held while calling into the take
// callback (which takes stealer.mu); nothing takes workQueue.mu while
// holding stealer.mu.
type workQueue struct {
	mu        sync.Mutex
	notify    chan struct{} // closed and replaced on every state change
	pending   []*unit       // FIFO of units available to take
	inflight  int
	remaining int // units not yet finished (pending + in-flight)
	failFast  bool
	fatal     error
	units     []UnitRun     // results, indexed by unit index
	finished  chan struct{} // closed when remaining hits 0 or fatal is set
}

func newWorkQueue(names []string, failFast bool) *workQueue {
	q := &workQueue{
		notify:    make(chan struct{}),
		remaining: len(names),
		failFast:  failFast,
		units:     make([]UnitRun, len(names)),
		finished:  make(chan struct{}),
	}
	for i, name := range names {
		q.pending = append(q.pending, &unit{index: i, name: name})
	}
	return q
}

// notifyLocked wakes every blocked take. Caller holds q.mu.
func (q *workQueue) notifyLocked() {
	close(q.notify)
	q.notify = make(chan struct{})
}

// doneLocked marks the dispatch over. Caller holds q.mu.
func (q *workQueue) doneLocked() {
	select {
	case <-q.finished:
	default:
		close(q.finished)
	}
}

// take blocks until a unit is available and returns it, or returns nil
// when the dispatch is over (every unit finished, a fatal error, or ctx
// canceled — the caller distinguishes via ctx and err()). holdBack is
// consulted before taking: a positive duration means this backend
// should stand aside that long to let a faster one drain the tail (see
// stealer.tailHold). The hold is spent at most once per take, so a
// misjudged estimate delays a unit, never strands it.
func (q *workQueue) take(ctx context.Context, holdBack func(pending int) time.Duration) *unit {
	held := false
	for {
		q.mu.Lock()
		if q.fatal != nil || q.remaining == 0 {
			q.mu.Unlock()
			return nil
		}
		if len(q.pending) > 0 {
			var hold time.Duration
			if !held && holdBack != nil {
				hold = holdBack(len(q.pending))
			}
			if hold <= 0 {
				u := q.pending[0]
				q.pending = q.pending[1:]
				q.inflight++
				q.mu.Unlock()
				return u
			}
			notify := q.notify
			q.mu.Unlock()
			select {
			case <-time.After(hold):
				held = true // the hold is spent: take whatever is still queued
			case <-notify: // state changed; re-evaluate
			case <-ctx.Done():
				return nil
			}
			continue
		}
		notify := q.notify
		q.mu.Unlock()
		select {
		case <-notify:
		case <-ctx.Done():
			return nil
		}
	}
}

// complete finishes a unit with its accepted result. Under fail-fast a
// failed outcome drains the pending tail into skipped units, mirroring
// what a local fail-fast suite does to the scenarios after a failure.
func (q *workQueue) complete(u *unit, run UnitRun) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.units[u.index] = run
	q.inflight--
	q.remaining--
	if q.failFast && run.Result != nil && run.Result.Failed > 0 {
		for _, p := range q.pending {
			q.units[p.index] = UnitRun{Scenario: p.name, Index: p.index, Skipped: true}
			q.remaining--
		}
		q.pending = nil
	}
	if q.remaining == 0 {
		q.doneLocked()
	}
	q.notifyLocked()
}

// requeue returns a faulted unit to the back of the queue.
func (q *workQueue) requeue(u *unit) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight--
	q.pending = append(q.pending, u)
	q.notifyLocked()
}

// fail poisons the dispatch; the first error wins.
func (q *workQueue) fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.fatal == nil {
		q.fatal = err
	}
	q.doneLocked()
	q.notifyLocked()
}

// err returns the fatal error, if any.
func (q *workQueue) err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fatal
}
