package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchstore"
	"repro/internal/dispatch/dispatchtest"
	"repro/internal/labd"
	"repro/internal/scenario"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func newCluster(t *testing.T, n int) *dispatchtest.Cluster {
	t.Helper()
	c := dispatchtest.New(n, labd.Config{Workers: 2})
	t.Cleanup(c.Close)
	return c
}

// wallRE erases the one legitimately nondeterministic report field.
var wallRE = regexp.MustCompile(`"wall_seconds":\s*[0-9eE.+-]+`)

// canon compacts raw JSON and erases wall times — the comparable form of
// a result document. Compacting never reorders keys, so byte equality of
// canon forms is byte equality of the documents modulo formatting.
func canon(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting result JSON: %v", err)
	}
	return wallRE.ReplaceAllString(buf.String(), `"wall_seconds":X`)
}

// localSuite runs the same suite in-process — the ground truth a
// dispatched run must reproduce.
func localSuite(t *testing.T, names []string, quick bool) *scenario.SuiteResult {
	t.Helper()
	res, err := scenario.RunSuite(ctxT(t), names, scenario.SuiteOptions{Quick: quick})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDispatchMatchesLocal is the core acceptance: a 3-backend dispatch
// of the full fixture suite merges into the same SuiteResult a local
// run produces — same outcome order, same metrics, byte-equivalent
// document modulo wall time.
func TestDispatchMatchesLocal(t *testing.T) {
	cluster := newCluster(t, 3)
	res, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != len(fixtureNames) {
		t.Fatalf("ran %d units, want one per scenario (%d)", len(res.Units), len(fixtureNames))
	}
	if got := strings.Join(res.Names, ","); got != strings.Join(fixtureNames, ",") {
		t.Fatalf("resolved names = %s", got)
	}

	local := localSuite(t, fixtureNames, true)
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canon(t, res.Raw), canon(t, localJSON); got != want {
		t.Errorf("merged raw differs from local:\n--- dispatch\n%s\n--- local\n%s", got, want)
	}
	mergedJSON, err := json.Marshal(res.Suite)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canon(t, mergedJSON), canon(t, localJSON); got != want {
		t.Errorf("merged typed result differs from local:\n--- dispatch\n%s\n--- local\n%s", got, want)
	}
}

// TestDispatchEventsMultiplexed: every unit's progress stream arrives
// through the one serialized callback, stamped with its backend, and
// every scenario's start/done pair is present. Whichever backend takes
// dsp-block is held on it until a second backend has been heard from, so
// the stream provably interleaves more than one backend whatever the
// schedule.
func TestDispatchEventsMultiplexed(t *testing.T) {
	cluster := newCluster(t, 3)
	gate := &blockGate{release: make(chan struct{})}
	blockerGate.Store(gate)
	defer blockerGate.Store(nil)
	var events []Event
	heard := map[string]bool{}
	_, err := Run(ctxT(t), cluster.Addrs(), Options{
		Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true},
		OnEvent: func(ev Event) {
			events = append(events, ev)
			if !heard[ev.Backend] {
				heard[ev.Backend] = true
				if len(heard) == 2 {
					close(gate.release)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	started := map[string]string{} // scenario -> backend
	done := map[string]bool{}
	backends := map[string]bool{}
	for _, ev := range events {
		if ev.Backend == "" {
			t.Fatalf("event without backend stamp: %+v", ev)
		}
		backends[ev.Backend] = true
		switch ev.Event.Phase {
		case "start":
			started[ev.Event.Scenario] = ev.Backend
		case "done":
			if ev.Event.Scenario != "" {
				done[ev.Event.Scenario] = true
			}
		}
	}
	for _, name := range fixtureNames {
		if started[name] == "" || !done[name] {
			t.Errorf("scenario %s missing start/done in multiplexed stream", name)
		}
	}
	if len(backends) < 2 {
		t.Errorf("events came from %d backend(s), want at least 2", len(backends))
	}
}

// TestDispatchExcludesDeadAtPlanning: a fleet listing one dead backend
// plans around it — fewer shards, same full coverage, the dead address
// reported excluded.
func TestDispatchExcludesDeadAtPlanning(t *testing.T) {
	cluster := newCluster(t, 3)
	dead := cluster.Backends[1]
	dead.Kill()
	res, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != dead.Addr() {
		t.Errorf("excluded = %v, want [%s]", res.Excluded, dead.Addr())
	}
	if err := res.Suite.Err(); err != nil {
		t.Errorf("degraded fleet result not green: %v", err)
	}
	if len(res.Suite.Outcomes) != len(fixtureNames) {
		t.Errorf("merged %d outcomes, want %d", len(res.Suite.Outcomes), len(fixtureNames))
	}
	for _, u := range res.Units {
		if u.Backend == dead.Addr() {
			t.Errorf("unit %s credited to the dead backend", u.Scenario)
		}
	}
}

// TestDispatchRequeuesBusyBackend: a backend whose queue turns
// submissions away (503 queue_full) keeps its healthz green, so it
// pulls — and every unit it grabs must requeue onto the survivor, never
// count as its result. The lone healthy backend is held on dsp-block
// until the busy one has refused a submission, so the suite cannot drain
// before the busy puller has taken a unit.
func TestDispatchRequeuesBusyBackend(t *testing.T) {
	cluster := newCluster(t, 2)
	busy := cluster.Backends[1]
	busy.SetFault(dispatchtest.FaultQueueFull)
	gate := &blockGate{release: make(chan struct{})}
	blockerGate.Store(gate)
	defer blockerGate.Store(nil)
	var refused sync.Once
	res, err := Run(ctxT(t), cluster.Addrs(), Options{
		Spec:       labd.JobSpec{Scenarios: fixtureNames, Quick: true},
		RetryDelay: 25 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "busy, requeued") {
				refused.Do(func() { close(gate.release) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requeued := false
	for _, u := range res.Units {
		if u.Backend == busy.Addr() {
			t.Errorf("unit %s accepted by the queue_full backend", u.Scenario)
		}
		for _, off := range u.Requeues {
			if off == busy.Addr() {
				requeued = true
			}
		}
	}
	if !requeued {
		t.Error("no unit records being requeued off the busy backend")
	}
	if err := res.Suite.Err(); err != nil {
		t.Errorf("result not green: %v", err)
	}
}

// TestDispatchHungBackendExcluded: a wedged backend (requests stall)
// must fall out at planning time once its probe times out.
func TestDispatchHungBackendExcluded(t *testing.T) {
	cluster := newCluster(t, 3)
	hung := cluster.Backends[0]
	hung.SetFault(dispatchtest.FaultHang)
	res, err := Run(ctxT(t), cluster.Addrs(), Options{
		Spec:         labd.JobSpec{Scenarios: fixtureNames, Quick: true},
		ProbeTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != hung.Addr() {
		t.Errorf("excluded = %v, want the hung backend", res.Excluded)
	}
	if err := res.Suite.Err(); err != nil {
		t.Errorf("result not green: %v", err)
	}
}

// TestDispatchDrainingExcluded: a draining backend advertises it on
// /v1/healthz and is excluded at planning time.
func TestDispatchDrainingExcluded(t *testing.T) {
	cluster := newCluster(t, 2)
	cluster.Backends[0].SetFault(dispatchtest.FaultDraining)
	res, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != cluster.Backends[0].Addr() {
		t.Errorf("excluded=%v, want the draining backend out", res.Excluded)
	}
	for _, u := range res.Units {
		if u.Backend != cluster.Backends[1].Addr() {
			t.Errorf("unit %s ran on %s, want the one live backend", u.Scenario, u.Backend)
		}
	}
	if err := res.Suite.Err(); err != nil {
		t.Errorf("result not green: %v", err)
	}
}

// TestDispatchNoHealthyBackends: an all-dead fleet is an error, not a
// hang or an empty green result.
func TestDispatchNoHealthyBackends(t *testing.T) {
	cluster := newCluster(t, 2)
	cluster.Close()
	_, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true}})
	if err == nil || !strings.Contains(err.Error(), "no healthy backend") {
		t.Fatalf("err = %v, want no-healthy-backend", err)
	}
}

// TestDispatchScenarioFailureIsNotRetried: a scenario that fails is a
// result, not a backend fault — the merged suite carries the failure,
// no requeue happens, and Err() is nonzero like a local run's.
func TestDispatchScenarioFailureIsNotRetried(t *testing.T) {
	cluster := newCluster(t, 2)
	names := []string{"dsp-a", "dsp-failing"}
	res, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Scenarios: names, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.Units {
		if u.Attempts != 1 {
			t.Errorf("unit %s took %d attempts; scenario failures must not requeue", u.Scenario, u.Attempts)
		}
	}
	if res.Suite.Failed != 1 {
		t.Errorf("merged Failed = %d, want 1", res.Suite.Failed)
	}
	if err := res.Suite.Err(); err == nil || !strings.Contains(err.Error(), "deliberately failing") {
		t.Errorf("suite error = %v", err)
	}
}

type failOnce struct{}

func (failOnce) Name() string       { return "dsp-failing" }
func (failOnce) Describe() string   { return "always fails" }
func (failOnce) DefaultConfig() any { return struct{}{} }
func (failOnce) Run(ctx context.Context, env *scenario.Env, cfg any) (*scenario.Report, error) {
	return nil, fmt.Errorf("deliberately failing")
}

func init() { scenario.Register(failOnce{}) }

// TestDispatchResolvesFleetRegistry: an empty scenario list resolves to
// the fleet's full sorted registry, fetched from a live backend.
func TestDispatchResolvesFleetRegistry(t *testing.T) {
	cluster := newCluster(t, 1)
	res, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.Names()
	if strings.Join(res.Names, ",") != strings.Join(want, ",") {
		t.Errorf("resolved names = %v, want the registry %v", res.Names, want)
	}
	// The registry contains the always-failing fixture, so the merged
	// result must carry exactly that one failure.
	if res.Suite.Failed != 1 {
		t.Errorf("Failed = %d, want 1 (dsp-failing)", res.Suite.Failed)
	}
}

// TestDispatchRejectsCallerShard: the shard slice belongs to the
// dispatcher.
func TestDispatchRejectsCallerShard(t *testing.T) {
	cluster := newCluster(t, 1)
	_, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{ShardCount: 2, ShardIndex: 0}})
	if err == nil || !strings.Contains(err.Error(), "owns the shard slice") {
		t.Fatalf("err = %v", err)
	}
}

// TestDispatchRejectsDuplicateBackend: the same daemon listed twice
// would silently double its share of the fleet.
func TestDispatchRejectsDuplicateBackend(t *testing.T) {
	cluster := newCluster(t, 1)
	addr := cluster.Backends[0].Addr()
	_, err := Run(ctxT(t), []string{addr, addr}, Options{})
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("err = %v", err)
	}
}

// TestBenchstoreMergeOnDispatcherInputs exercises benchstore.Merge with
// real dispatcher unit outputs (not hand-built maps): a duplicated
// snapshot refuses as overlap, a doctored quick flag refuses as a
// mix — the guards `labctl bench -addrs` relies on.
func TestBenchstoreMergeOnDispatcherInputs(t *testing.T) {
	cluster := newCluster(t, 2)
	res, err := Run(ctxT(t), cluster.Addrs(), Options{Spec: labd.JobSpec{Scenarios: fixtureNames, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]*benchstore.Snapshot, len(res.Units))
	for i, u := range res.Units {
		snaps[i] = benchstore.FromReports("", u.Result.Reports()...)
		snaps[i].Quick = true
	}
	if merged, err := benchstore.Merge(snaps...); err != nil {
		t.Fatalf("clean merge: %v", err)
	} else if len(merged.Scenarios) != len(fixtureNames) {
		t.Errorf("merged %d scenarios, want %d", len(merged.Scenarios), len(fixtureNames))
	}
	// Same shard twice: overlap refusal.
	if _, err := benchstore.Merge(snaps[0], snaps[0]); err == nil ||
		!strings.Contains(err.Error(), "more than one shard") {
		t.Errorf("duplicate-shard merge err = %v", err)
	}
	// Doctored configuration class: quick/full refusal.
	snaps[1].Quick = false
	if _, err := benchstore.Merge(snaps...); err == nil ||
		!strings.Contains(err.Error(), "quick and full") {
		t.Errorf("quick-mix merge err = %v", err)
	}
}
