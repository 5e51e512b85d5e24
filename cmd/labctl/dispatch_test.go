package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/dispatch/dispatchtest"
	"repro/internal/labd"
	"repro/internal/scenario"
)

// Fleet-mode fixtures: deterministic scenarios so artifacts from a
// dispatched run can be compared byte-for-byte against local ones.

type fleetFixture struct {
	name string
	gain float64
}

func (f fleetFixture) Name() string       { return f.name }
func (f fleetFixture) Describe() string   { return "fleet fixture " + f.name }
func (f fleetFixture) DefaultConfig() any { return remoteFixtureConfig{Gain: f.gain} }
func (f fleetFixture) QuickConfig() any   { return remoteFixtureConfig{Gain: f.gain / 2} }
func (f fleetFixture) Run(ctx context.Context, env *scenario.Env, cfg any) (*scenario.Report, error) {
	c := cfg.(remoteFixtureConfig)
	env.Phasef("compute", "gain %g", c.Gain)
	rep := &scenario.Report{EmulatedSeconds: f.gain}
	rep.Metric("gain", c.Gain)
	rep.Metric("sum", 3*c.Gain)
	return rep, nil
}

type fleetFailing struct{}

func (fleetFailing) Name() string       { return "fleetctl-failing" }
func (fleetFailing) Describe() string   { return "always fails" }
func (fleetFailing) DefaultConfig() any { return struct{}{} }
func (fleetFailing) Run(ctx context.Context, env *scenario.Env, cfg any) (*scenario.Report, error) {
	return nil, fmt.Errorf("deliberate fleet failure")
}

// fleetNames is the fixture suite fleet-mode tests run, sorted.
var fleetNames = []string{"fleetctl-0", "fleetctl-1", "fleetctl-2", "fleetctl-3"}

func init() {
	for i, name := range fleetNames {
		scenario.Register(fleetFixture{name: name, gain: float64(i + 1)})
	}
}

// registerFleetFailing adds the always-failing fixture lazily (same
// idiom as remote_test.go) so full-registry tests elsewhere in this
// binary stay green.
var registerFleetFailing = sync.OnceFunc(func() { scenario.Register(fleetFailing{}) })

// startCluster boots n in-process labd backends.
func startCluster(t *testing.T, n int) *dispatchtest.Cluster {
	t.Helper()
	c := dispatchtest.New(n, labd.Config{Workers: 2})
	t.Cleanup(c.Close)
	return c
}

// TestDispatchSuiteMatchesLocal is the CLI acceptance: `labctl suite
// -addrs <3 backends>` writes a SuiteResult artifact byte-identical to
// the in-process run, modulo wall time.
func TestDispatchSuiteMatchesLocal(t *testing.T) {
	cluster := startCluster(t, 3)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.json")
	fleetPath := filepath.Join(dir, "fleet.json")

	var localOut, fleetOut bytes.Buffer
	if err := run(append([]string{"suite", "-quick", "-o", localPath}, fleetNames...), &localOut, &localOut); err != nil {
		t.Fatal(err)
	}
	addrs := strings.Join(cluster.Addrs(), ",")
	if err := run(append([]string{"suite", "-quick", "-addrs", addrs, "-o", fleetPath}, fleetNames...), &fleetOut, &fleetOut); err != nil {
		t.Fatal(err)
	}
	local, _ := os.ReadFile(localPath)
	fleet, _ := os.ReadFile(fleetPath)
	if normalizeWall(local) != normalizeWall(fleet) {
		t.Errorf("fleet suite artifact differs:\n--- local\n%s\n--- fleet\n%s", local, fleet)
	}
	for _, out := range []string{localOut.String(), fleetOut.String()} {
		if !strings.Contains(out, "suite: 4 scenarios, 0 failed, 0 skipped") {
			t.Errorf("summary missing:\n%s", out)
		}
	}
}

// TestDispatchSuiteSurvivesDeadBackend: one dead backend in the -addrs
// list must not change the artifact or the exit code — the fleet plans
// around it.
func TestDispatchSuiteSurvivesDeadBackend(t *testing.T) {
	cluster := startCluster(t, 3)
	cluster.Backends[2].Kill()
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.json")
	fleetPath := filepath.Join(dir, "fleet.json")

	var out bytes.Buffer
	if err := run(append([]string{"suite", "-quick", "-o", localPath}, fleetNames...), &out, &out); err != nil {
		t.Fatal(err)
	}
	addrs := strings.Join(cluster.Addrs(), ",")
	if err := run(append([]string{"suite", "-quick", "-addrs", addrs, "-o", fleetPath}, fleetNames...), &out, &out); err != nil {
		t.Fatalf("suite over a degraded fleet: %v", err)
	}
	local, _ := os.ReadFile(localPath)
	fleet, _ := os.ReadFile(fleetPath)
	if normalizeWall(local) != normalizeWall(fleet) {
		t.Errorf("degraded-fleet artifact differs:\n--- local\n%s\n--- fleet\n%s", local, fleet)
	}
}

// TestDispatchRunMatchesLocal covers the `labctl run -addrs` path and
// its report-array artifact.
func TestDispatchRunMatchesLocal(t *testing.T) {
	cluster := startCluster(t, 2)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.json")
	fleetPath := filepath.Join(dir, "fleet.json")
	var out bytes.Buffer
	if err := run(append([]string{"run", "-o", localPath}, fleetNames...), &out, &out); err != nil {
		t.Fatal(err)
	}
	addrs := strings.Join(cluster.Addrs(), ",")
	if err := run(append([]string{"run", "-addrs", addrs, "-o", fleetPath}, fleetNames...), &out, &out); err != nil {
		t.Fatal(err)
	}
	local, _ := os.ReadFile(localPath)
	fleet, _ := os.ReadFile(fleetPath)
	if normalizeWall(local) != normalizeWall(fleet) {
		t.Errorf("fleet run artifact differs:\n--- local\n%s\n--- fleet\n%s", local, fleet)
	}
}

// TestDispatchBenchMatchesLocal: `labctl bench -addrs` merges the
// per-shard snapshots through benchstore.Merge into the same snapshot a
// local bench writes, modulo created_at and wall time.
func TestDispatchBenchMatchesLocal(t *testing.T) {
	cluster := startCluster(t, 3)
	dir := t.TempDir()
	localSnap := filepath.Join(dir, "local_snap.json")
	fleetSnap := filepath.Join(dir, "fleet_snap.json")
	var out bytes.Buffer
	if err := run(append([]string{"bench", "-quick", "-o", localSnap, "-label", "t"}, fleetNames...), &out, &out); err != nil {
		t.Fatal(err)
	}
	addrs := strings.Join(cluster.Addrs(), ",")
	if err := run(append([]string{"bench", "-quick", "-addrs", addrs, "-o", fleetSnap, "-label", "t"}, fleetNames...), &out, &out); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`("created_at": "[^"]*"|"wall_seconds": [0-9eE.+-]+)`)
	local, _ := os.ReadFile(localSnap)
	fleet, _ := os.ReadFile(fleetSnap)
	norm := func(b []byte) string { return re.ReplaceAllString(string(b), "X") }
	if norm(local) != norm(fleet) {
		t.Errorf("fleet snapshot differs:\n--- local\n%s\n--- fleet\n%s", local, fleet)
	}
}

// TestDispatchAddrsFile reads the fleet from a file, comments and blank
// lines included.
func TestDispatchAddrsFile(t *testing.T) {
	cluster := startCluster(t, 2)
	dir := t.TempDir()
	addrsPath := filepath.Join(dir, "fleet.txt")
	content := "# the lab fleet\n" + cluster.Backends[0].Addr() + "\n\n" +
		cluster.Backends[1].Addr() + "  # rack 2\n"
	if err := os.WriteFile(addrsPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(append([]string{"suite", "-quick", "-addrs-file", addrsPath}, fleetNames...), &out, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "suite: 4 scenarios, 0 failed, 0 skipped") {
		t.Errorf("summary missing:\n%s", out.String())
	}
}

// TestDispatchFlagConflicts: -addr vs -addrs, and -shard under -addrs,
// are rejected with messages naming the conflict.
func TestDispatchFlagConflicts(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"suite", "-addr", "x:1", "-addrs", "y:1", fleetNames[0]}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-addr+-addrs err = %v", err)
	}
	err = run([]string{"suite", "-addrs", "y:1", "-shard", "0/2", fleetNames[0]}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "owns the shard slice") {
		t.Errorf("-addrs+-shard err = %v", err)
	}
	err = run([]string{"suite", "-addrs", " , ", fleetNames[0]}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "no backend addresses") {
		t.Errorf("empty -addrs err = %v", err)
	}
}

// TestDispatchSuiteFailureExitsNonzero: a failing scenario in a
// dispatched suite renders FAILED and exits nonzero, like local mode.
func TestDispatchSuiteFailureExitsNonzero(t *testing.T) {
	registerFleetFailing()
	cluster := startCluster(t, 2)
	addrs := strings.Join(cluster.Addrs(), ",")
	var out bytes.Buffer
	err := run([]string{"suite", "-addrs", addrs, fleetNames[0], "fleetctl-failing"}, &out, &out)
	if err == nil {
		t.Fatal("dispatched suite with failing scenario exited zero")
	}
	if !strings.Contains(out.String(), "FAILED") || !strings.Contains(err.Error(), "deliberate fleet failure") {
		t.Errorf("failure rendering missing:\nout=%s\nerr=%v", out.String(), err)
	}
}
