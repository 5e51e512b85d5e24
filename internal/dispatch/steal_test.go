package dispatch

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch/dispatchtest"
	"repro/internal/labd"
	"repro/internal/scenario"
)

// TestStealStragglerDoesNotGateSuite is the straggler regression: with
// one backend delayed 10×+ per job, the fast backend must drain the
// tail, the suite must finish without any unit exhausting MaxAttempts,
// and the merged artifact must stay byte-identical (modulo wall time)
// to a healthy local run. Under the old fixed partition the slow
// backend held half the suite hostage; here it completes at most a
// couple of units.
func TestStealStragglerDoesNotGateSuite(t *testing.T) {
	const delay = 400 * time.Millisecond
	cluster := newCluster(t, 2)
	slow := cluster.Backends[1]
	slow.SetExecDelay(delay)

	start := time.Now()
	res, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := res.Suite.Err(); err != nil {
		t.Fatalf("result not green: %v", err)
	}

	slowUnits := 0
	for _, u := range res.Units {
		if u.Backend == slow.Addr() {
			slowUnits++
		}
		if u.Attempts != 1 {
			t.Errorf("unit %s took %d attempts on a healthy fleet", u.Scenario, u.Attempts)
		}
	}
	// The slow backend pays the delay per unit; once its EWMA marks it a
	// straggler it stands aside at the tail, so it can take at most a
	// few units while the fast backend takes the rest.
	if slowUnits > 2 {
		t.Errorf("slow backend completed %d of %d units; stealing should starve a straggler", slowUnits, len(res.Units))
	}
	if slowUnits == len(res.Units) {
		t.Errorf("every unit ran on the slow backend")
	}
	// Wall-clock: a fixed half/half partition would cost ≥ 3×delay on the
	// slow shard; stealing bounds the suite near the slow backend's
	// couple of units. Generous margin for CI noise.
	if limit := 3*delay - 50*time.Millisecond; elapsed >= limit {
		t.Errorf("suite took %v, want < %v (straggler gated the suite)", elapsed, limit)
	}

	local := localSuite(t, fixtureNames, true)
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canon(t, res.Raw), canon(t, localJSON); got != want {
		t.Errorf("straggler-fleet artifact differs from local:\n--- dispatch\n%s\n--- local\n%s", got, want)
	}
}

// TestStealBackendJoinsMidRun: a backend excluded at planning time
// (draining) recovers while the suite runs; the re-probe tick must grow
// the plan live and let it take units.
func TestStealBackendJoinsMidRun(t *testing.T) {
	cluster := newCluster(t, 2)
	worker := cluster.Backends[0]
	late := cluster.Backends[1]
	worker.SetExecDelay(150 * time.Millisecond)
	late.SetFault(dispatchtest.FaultDraining)

	firstDone := make(chan struct{}, 1)
	res, err := Run(ctxT(t), cluster.Addrs(), Options{
		Spec:            labd.JobSpec{Scenarios: fixtureNames, Quick: true},
		ReprobeInterval: 30 * time.Millisecond,
		OnEvent: func(ev Event) {
			if ev.Event.Phase == "done" && ev.Event.Scenario != "" {
				select {
				case firstDone <- struct{}{}:
					// The dispatch is provably mid-run: heal the late
					// backend so the next re-probe tick can admit it.
					late.SetFault(dispatchtest.FaultNone)
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Suite.Err(); err != nil {
		t.Fatalf("result not green: %v", err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != late.Addr() {
		t.Fatalf("excluded = %v, want the initially draining backend", res.Excluded)
	}
	joined := 0
	for _, u := range res.Units {
		if u.Backend == late.Addr() {
			joined++
		}
	}
	if joined == 0 {
		t.Error("the recovered backend never took a unit; mid-run join failed")
	}
}

// TestStealMaxAttemptsDerivedFromLiveBackends pins the probe-aware
// default: three dead addresses and one busy survivor must give up
// after 2 attempts (2 × 1 live), not 8 (2 × 4 listed).
func TestStealMaxAttemptsDerivedFromLiveBackends(t *testing.T) {
	t.Run("steal", func(t *testing.T) {
		cluster := newCluster(t, 4)
		for i := 0; i < 3; i++ {
			cluster.Backends[i].Kill()
		}
		cluster.Backends[3].SetFault(dispatchtest.FaultQueueFull)
		_, err := Run(ctxT(t), cluster.Addrs(), Options{
			Spec:       labd.JobSpec{Scenarios: fixtureNames, Quick: true},
			RetryDelay: 10 * time.Millisecond,
		})
		if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempt(s)") {
			t.Fatalf("err = %v, want give-up after 2 attempts (2 × live, not 2 × listed)", err)
		}
	})
}

// TestWorkQueueFailFastDrainsPending: a failed unit under fail-fast
// converts the pending tail into skipped units and finishes the queue.
func TestWorkQueueFailFastDrainsPending(t *testing.T) {
	names := []string{"s0", "s1", "s2"}
	q := newWorkQueue(names, true)
	ctx := ctxT(t)

	u := q.take(ctx, nil)
	if u == nil || u.index != 0 {
		t.Fatalf("first take = %+v, want unit 0", u)
	}
	failed := &scenario.SuiteResult{
		Outcomes: []scenario.Outcome{{Scenario: "s0", Error: "boom"}},
		Failed:   1,
	}
	q.complete(u, UnitRun{Scenario: "s0", Index: 0, Result: failed})
	if q.take(ctx, nil) != nil {
		t.Fatal("take after fail-fast drain returned a unit")
	}
	select {
	case <-q.finished:
	default:
		t.Fatal("queue not finished after fail-fast drain")
	}
	for i := 1; i < 3; i++ {
		if !q.units[i].Skipped || q.units[i].Scenario != names[i] {
			t.Errorf("unit %d = %+v, want skipped %s", i, q.units[i], names[i])
		}
	}
}

// TestWorkQueueRequeueGoesToTheBack: a spilled unit rejoins behind the
// still-pending units, so one flaky backend cannot starve the rest of
// the queue.
func TestWorkQueueRequeueGoesToTheBack(t *testing.T) {
	q := newWorkQueue([]string{"s0", "s1"}, false)
	ctx := ctxT(t)
	u0 := q.take(ctx, nil)
	q.requeue(u0)
	if u := q.take(ctx, nil); u.index != 1 {
		t.Fatalf("take after requeue = unit %d, want 1 (requeued unit goes to the back)", u.index)
	}
}

// TestStealerTailHold pins the straggler heuristic: a backend ≥ 2× its
// fastest peer holds back only when the pending tail fits on the faster
// peers, and never without samples.
func TestStealerTailHold(t *testing.T) {
	d := &stealer{
		active: map[string]bool{"slow": true, "fast": true},
		ewma:   map[string]float64{"slow": 1.0, "fast": 0.1},
	}
	if h := d.tailHold("slow", 1); h <= 0 {
		t.Errorf("straggler at the tail got hold %v, want > 0", h)
	}
	if h := d.tailHold("slow", 5); h != 0 {
		t.Errorf("straggler with a deep queue got hold %v, want 0 (plenty of work for everyone)", h)
	}
	if h := d.tailHold("fast", 1); h != 0 {
		t.Errorf("fast backend got hold %v, want 0", h)
	}
	if h := d.tailHold("unknown", 1); h != 0 {
		t.Errorf("sample-less backend got hold %v, want 0 (must bootstrap)", h)
	}
	// An inactive fast peer cannot justify holding.
	d.active["fast"] = false
	if h := d.tailHold("slow", 1); h != 0 {
		t.Errorf("straggler with no active fast peer got hold %v, want 0", h)
	}
	// The hold is clamped to the configured bounds.
	d.active["fast"] = true
	d.ewma["fast"] = 0.0001
	if h := d.tailHold("slow", 1); h != minTailHold {
		t.Errorf("hold = %v, want the %v floor", h, minTailHold)
	}
	d.ewma["fast"] = 100
	d.ewma["slow"] = 1000
	if h := d.tailHold("slow", 1); h != maxTailHold {
		t.Errorf("hold = %v, want the %v ceiling", h, maxTailHold)
	}
}

// TestMergeUnitsRefusals drives MergeUnits' determinism guards
// directly: overlap, wrong scenario, quick/full mix, and the skipped
// fabrication path.
func TestMergeUnitsRefusals(t *testing.T) {
	names := []string{"s0", "s1"}
	unitOf := func(i int, name string, quick bool) UnitRun {
		return UnitRun{
			Scenario: name,
			Index:    i,
			Result: &scenario.SuiteResult{
				Outcomes: []scenario.Outcome{{Scenario: name, Report: &scenario.Report{Scenario: name}}},
				Quick:    quick,
			},
		}
	}

	if _, _, err := MergeUnits(names, []UnitRun{unitOf(0, "s0", true), unitOf(0, "s0", true)}); err == nil ||
		!strings.Contains(err.Error(), "covered twice") {
		t.Errorf("overlap err = %v", err)
	}
	if _, _, err := MergeUnits(names, []UnitRun{unitOf(0, "s0", true), unitOf(1, "s0", true)}); err == nil ||
		!strings.Contains(err.Error(), "suite order expects") {
		t.Errorf("wrong-scenario err = %v", err)
	}
	if _, _, err := MergeUnits(names, []UnitRun{unitOf(0, "s0", true), unitOf(1, "s1", false)}); err == nil ||
		!strings.Contains(err.Error(), "quick and full") {
		t.Errorf("quick-mix err = %v", err)
	}
	if _, _, err := MergeUnits(names, []UnitRun{unitOf(0, "s0", true)}); err == nil {
		t.Error("short unit list accepted")
	}

	// Fail-fast skip: the merged document carries the same skipped
	// outcome a local fail-fast run encodes.
	suite, raw, err := MergeUnits(names, []UnitRun{
		unitOf(0, "s0", false),
		{Scenario: "s1", Index: 1, Skipped: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if suite.Skipped != 1 || !suite.Outcomes[1].Skipped {
		t.Errorf("merged suite = %+v, want outcome 1 skipped", suite)
	}
	if !strings.Contains(string(raw), `{"scenario":"s1","skipped":true}`) {
		t.Errorf("raw merge %s missing the canonical skipped outcome", raw)
	}
}

// TestStealFailFastSkipsTail runs an actual fail-fast dispatch: the
// failure surfaces, pending units drain as skipped, and Err() is
// nonzero — same contract as a local fail-fast suite.
func TestStealFailFastSkipsTail(t *testing.T) {
	cluster := dispatchtest.New(1, labd.Config{Workers: 1})
	t.Cleanup(cluster.Close)
	names := []string{"dsp-failing", "dsp-a", "dsp-c"}
	res, err := Run(ctxT(t), cluster.Addrs(), Options{
		Spec: labd.JobSpec{Scenarios: names, Quick: true, FailFast: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suite.Failed != 1 {
		t.Errorf("Failed = %d, want 1", res.Suite.Failed)
	}
	if res.Suite.Failed+res.Suite.Skipped != len(names) {
		t.Errorf("failed=%d skipped=%d over %d scenarios; fail-fast should skip the tail",
			res.Suite.Failed, res.Suite.Skipped, len(names))
	}
	if res.Suite.Err() == nil {
		t.Error("Err() = nil on a failing fail-fast dispatch")
	}
}

// TestStealCancelPromptly: canceling the caller's context mid-dispatch
// returns promptly with the context error, not a hang or a partial
// merge.
func TestStealCancelPromptly(t *testing.T) {
	cluster := newCluster(t, 2)
	gate := &blockGate{release: make(chan struct{})}
	blockerGate.Store(gate)
	defer blockerGate.Store(nil)
	defer close(gate.release)

	ctx, cancel := context.WithCancel(ctxT(t))
	blocked := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cluster.Addrs(), Options{
			Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true},
			OnEvent: func(ev Event) {
				if ev.Event.Scenario == "dsp-block" && ev.Event.Phase == "blocked" {
					select {
					case blocked <- struct{}{}:
					default:
					}
				}
			},
		})
		done <- err
	}()
	select {
	case <-blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never held a unit")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("canceled dispatch returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled dispatch did not return promptly")
	}
}
