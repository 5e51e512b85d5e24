package netem

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/topo"
)

func labEmulator(t *testing.T, cfg Config) *Emulator {
	t.Helper()
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(lab, cfg)
}

// runUntil advances e to time at under a context that never cancels.
func runUntil(t *testing.T, e *Emulator, at float64) {
	t.Helper()
	if err := e.RunUntilContext(context.Background(), at); err != nil {
		t.Fatal(err)
	}
}

// runFor advances e by d seconds under a context that never cancels.
func runFor(t *testing.T, e *Emulator, d float64) {
	t.Helper()
	runUntil(t, e, e.Now()+d)
}

func greedySpec(name string, tos uint8, p topo.Path) FlowSpec {
	return FlowSpec{
		Name: name, Src: topo.HostMIA, Dst: topo.HostAMS,
		ToS: tos, Proto: 6, Path: p,
	}
}

func TestSingleFlowReachesBottleneck(t *testing.T) {
	e := labEmulator(t, Config{})
	id, err := e.AddFlow(greedySpec("f1", 4, topo.TunnelPath1()))
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	f, err := e.Flow(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.RateMbps-20) > 0.01 {
		t.Errorf("rate after 10 s = %v, want ≈20 (tunnel-1 bottleneck)", f.RateMbps)
	}
	if f.Bytes <= 0 {
		t.Error("flow delivered no bytes")
	}
}

func TestRampIsGradual(t *testing.T) {
	e := labEmulator(t, Config{TickSeconds: 0.1, RampMbpsPerSec: 10})
	id, _ := e.AddFlow(greedySpec("f1", 4, topo.TunnelPath1()))
	e.Step() // one 0.1 s tick: at most 1 Mbps
	f, _ := e.Flow(id)
	if f.RateMbps > 1.0+1e-9 {
		t.Errorf("rate after one tick = %v, want ≤ 1 (ramp 10 Mbps/s)", f.RateMbps)
	}
	runFor(t, e, 5)
	f, _ = e.Flow(id)
	if f.RateMbps < 19.9 {
		t.Errorf("rate after 5 s = %v, want ≈20", f.RateMbps)
	}
}

func TestDemandCap(t *testing.T) {
	e := labEmulator(t, Config{})
	spec := greedySpec("f1", 4, topo.TunnelPath1())
	spec.DemandMbps = 3
	id, _ := e.AddFlow(spec)
	runFor(t, e, 5)
	f, _ := e.Flow(id)
	if math.Abs(f.RateMbps-3) > 1e-6 {
		t.Errorf("rate = %v, want 3 (demand cap)", f.RateMbps)
	}
}

func TestThreeFlowsShareTunnel1(t *testing.T) {
	// Experiment 2, phase 1: three greedy flows on tunnel 1 split its 20
	// Mbps bottleneck, total < 20 never above.
	e := labEmulator(t, Config{})
	var ids []FlowID
	for i := 0; i < 3; i++ {
		id, err := e.AddFlow(greedySpec("f", uint8(4*(i+1)), topo.TunnelPath1()))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	runFor(t, e, 10)
	total := e.TotalActiveMbps(ids...)
	if math.Abs(total-20) > 0.1 {
		t.Errorf("total = %v, want ≈20", total)
	}
	for _, id := range ids {
		f, _ := e.Flow(id)
		if math.Abs(f.RateMbps-20.0/3) > 0.1 {
			t.Errorf("flow %d rate = %v, want ≈6.67", id, f.RateMbps)
		}
	}
}

func TestRerouteRaisesTotal(t *testing.T) {
	// Experiment 2, phase 2: moving flows to tunnels 2 and 3 lifts the
	// aggregate to ≈35 at the allocation level (paper reports ≈30 with
	// protocol overheads).
	e := labEmulator(t, Config{})
	var ids []FlowID
	for i := 0; i < 3; i++ {
		id, _ := e.AddFlow(greedySpec("f", uint8(4*(i+1)), topo.TunnelPath1()))
		ids = append(ids, id)
	}
	runFor(t, e, 10)
	if err := e.Reroute(ids[1], topo.TunnelPath2()); err != nil {
		t.Fatal(err)
	}
	if err := e.Reroute(ids[2], topo.TunnelPath3()); err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	total := e.TotalActiveMbps(ids...)
	if total < 34.9 {
		t.Errorf("total after spreading = %v, want ≈35 (20+10+5)", total)
	}
	f1, _ := e.Flow(ids[0])
	f2, _ := e.Flow(ids[1])
	f3, _ := e.Flow(ids[2])
	if math.Abs(f1.RateMbps-20) > 0.1 || math.Abs(f2.RateMbps-10) > 0.1 || math.Abs(f3.RateMbps-5) > 0.1 {
		t.Errorf("per-tunnel rates = %v/%v/%v, want 20/10/5", f1.RateMbps, f2.RateMbps, f3.RateMbps)
	}
}

func TestProbeRTTReflectsPathDelay(t *testing.T) {
	e := labEmulator(t, Config{})
	rtt1, err := e.ProbeRTTms(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	rtt2, err := e.ProbeRTTms(topo.TunnelPath2())
	if err != nil {
		t.Fatal(err)
	}
	// Tunnel 1 carries the 20 ms tc delay each way: RTT ≥ 40 ms.
	if rtt1 < 40 {
		t.Errorf("tunnel-1 RTT = %v, want ≥ 40", rtt1)
	}
	if rtt2 > 15 {
		t.Errorf("tunnel-2 RTT = %v, want < 15", rtt2)
	}
	if rtt2 >= rtt1 {
		t.Errorf("tunnel-2 RTT (%v) should be below tunnel-1 (%v)", rtt2, rtt1)
	}
}

func TestProbeRTTGrowsWithLoad(t *testing.T) {
	e := labEmulator(t, Config{})
	idle, _ := e.ProbeRTTms(topo.TunnelPath1())
	_, _ = e.AddFlow(greedySpec("f1", 4, topo.TunnelPath1()))
	runFor(t, e, 10)
	loaded, _ := e.ProbeRTTms(topo.TunnelPath1())
	if loaded <= idle {
		t.Errorf("RTT under load (%v) should exceed idle RTT (%v)", loaded, idle)
	}
}

func TestAddFlowValidation(t *testing.T) {
	e := labEmulator(t, Config{})
	spec := greedySpec("bad", 4, topo.Path{Nodes: []string{topo.HostMIA}})
	if _, err := e.AddFlow(spec); err == nil {
		t.Error("short path should fail")
	}
	spec = greedySpec("bad", 4, topo.TunnelPath1())
	spec.Src = "host2"
	if _, err := e.AddFlow(spec); err == nil {
		t.Error("mismatched endpoints should fail")
	}
	spec = greedySpec("bad", 4, topo.Path{Nodes: []string{topo.HostMIA, topo.AMS, topo.HostAMS}})
	if _, err := e.AddFlow(spec); err == nil {
		t.Error("non-adjacent hop should fail")
	}
	spec = greedySpec("bad", 4, topo.TunnelPath1())
	spec.DemandMbps = -1
	if _, err := e.AddFlow(spec); err == nil {
		t.Error("negative demand should fail")
	}
}

func TestPathValidatorHook(t *testing.T) {
	e := labEmulator(t, Config{})
	calls := 0
	e.SetPathValidator(func(p topo.Path) error {
		calls++
		if p.Equal(topo.TunnelPath3()) {
			return errors.New("synthetic data-plane mismatch")
		}
		return nil
	})
	id, err := e.AddFlow(greedySpec("f1", 4, topo.TunnelPath1()))
	if err != nil {
		t.Fatal(err)
	}
	err = e.Reroute(id, topo.TunnelPath3())
	if err == nil || !strings.Contains(err.Error(), "data plane") {
		t.Errorf("validator rejection not propagated: %v", err)
	}
	if calls != 2 {
		t.Errorf("validator called %d times, want 2", calls)
	}
}

func TestStopFlowReleasesCapacity(t *testing.T) {
	e := labEmulator(t, Config{})
	a, _ := e.AddFlow(greedySpec("a", 4, topo.TunnelPath1()))
	b, _ := e.AddFlow(greedySpec("b", 8, topo.TunnelPath1()))
	runFor(t, e, 10)
	if err := e.StopFlow(a); err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 5)
	fb, _ := e.Flow(b)
	if math.Abs(fb.RateMbps-20) > 0.1 {
		t.Errorf("survivor rate = %v, want ≈20", fb.RateMbps)
	}
	fa, _ := e.Flow(a)
	if fa.Active || fa.RateMbps != 0 {
		t.Errorf("stopped flow still active: %+v", fa)
	}
}

func TestScheduleExecutesInOrder(t *testing.T) {
	e := labEmulator(t, Config{TickSeconds: 0.5})
	var log []string
	e.Schedule(1.0, func(*Emulator) { log = append(log, "b") })
	e.Schedule(0.2, func(*Emulator) { log = append(log, "a") })
	e.Schedule(2.0, func(*Emulator) { log = append(log, "c") })
	runUntil(t, e, 3)
	if strings.Join(log, "") != "abc" {
		t.Errorf("event order = %v", log)
	}
}

func TestSeriesRecording(t *testing.T) {
	e := labEmulator(t, Config{TickSeconds: 0.1, RecordLinkSeries: true})
	id, _ := e.AddFlow(greedySpec("f1", 4, topo.TunnelPath1()))
	runFor(t, e, 2)
	s, err := e.FlowSeries(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20 {
		t.Errorf("flow series has %d points, want 20", s.Len())
	}
	// Rates must be non-decreasing while ramping alone on the path.
	vals := s.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1]-1e-9 {
			t.Errorf("ramp not monotonic at %d: %v < %v", i, vals[i], vals[i-1])
		}
	}
	lu, err := e.LinkUtilSeries("MIA->SAO")
	if err != nil {
		t.Fatal(err)
	}
	if lu.Len() != 20 {
		t.Errorf("link series has %d points", lu.Len())
	}
	if last, _ := lu.Last(); last.Value <= 0 {
		t.Error("MIA->SAO utilization should be positive under load")
	}
	if _, err := e.LinkUtilSeries("no->link"); err == nil {
		t.Error("unknown link should fail")
	}
	e2 := labEmulator(t, Config{})
	if _, err := e2.LinkUtilSeries("MIA->SAO"); err == nil {
		t.Error("disabled recording should fail")
	}
}

func TestPathAvailableMbps(t *testing.T) {
	e := labEmulator(t, Config{})
	avail, err := e.PathAvailableMbps(topo.TunnelPath2())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avail-10) > 1e-9 {
		t.Errorf("idle available = %v, want 10", avail)
	}
	_, _ = e.AddFlow(greedySpec("f1", 4, topo.TunnelPath2()))
	runFor(t, e, 5)
	avail, _ = e.PathAvailableMbps(topo.TunnelPath2())
	if avail > 0.2 {
		t.Errorf("available under saturation = %v, want ≈0", avail)
	}
}

func TestUnknownFlowErrors(t *testing.T) {
	e := labEmulator(t, Config{})
	if _, err := e.Flow(99); err == nil {
		t.Error("unknown Flow should fail")
	}
	if err := e.StopFlow(99); err == nil {
		t.Error("unknown StopFlow should fail")
	}
	if err := e.Reroute(99, topo.TunnelPath1()); err == nil {
		t.Error("unknown Reroute should fail")
	}
	if _, err := e.FlowSeries(99); err == nil {
		t.Error("unknown FlowSeries should fail")
	}
}

func TestFlowsSnapshotOrder(t *testing.T) {
	e := labEmulator(t, Config{})
	a, _ := e.AddFlow(greedySpec("a", 4, topo.TunnelPath1()))
	b, _ := e.AddFlow(greedySpec("b", 8, topo.TunnelPath2()))
	fl := e.Flows()
	if len(fl) != 2 || fl[0].ID != a || fl[1].ID != b {
		t.Errorf("Flows = %+v", fl)
	}
	if fl[0].Spec.Name != "a" || fl[1].Spec.Name != "b" {
		t.Errorf("Flows names = %s, %s", fl[0].Spec.Name, fl[1].Spec.Name)
	}
}

// TestScheduleSameInstantKeepsRegistrationOrder pins the order of events
// due at one instant: the order they were scheduled in, wherever the
// instant falls among the other events, and an event scheduled for "now"
// from inside an event runs at the next tick, after the ones already due.
func TestScheduleSameInstantKeepsRegistrationOrder(t *testing.T) {
	e := labEmulator(t, Config{TickSeconds: 0.5})
	var log []string
	note := func(s string) func(*Emulator) {
		return func(*Emulator) { log = append(log, s) }
	}
	e.Schedule(1.0, note("b1"))
	e.Schedule(2.0, note("c1"))
	e.Schedule(1.0, note("b2"))
	e.Schedule(0.0, note("a1"))
	e.Schedule(1.0, func(em *Emulator) {
		log = append(log, "b3")
		em.Schedule(em.Now(), note("b5"))
	})
	e.Schedule(2.0, note("c2"))
	e.Schedule(0.0, note("a2"))
	e.Schedule(1.0, note("b4"))
	runUntil(t, e, 3)
	if got, want := strings.Join(log, " "), "a1 a2 b1 b2 b3 b4 b5 c1 c2"; got != want {
		t.Errorf("event order = %q, want %q", got, want)
	}
}

// TestRecurringEventSurvivesTheDueBuffer is the telemetry collector's
// shape: one event that reschedules itself every second. The due buffer
// is reused from tick to tick, so a stale or clobbered entry would show as
// a missed or repeated firing.
func TestRecurringEventSurvivesTheDueBuffer(t *testing.T) {
	e := labEmulator(t, Config{})
	var fired []float64
	var tick func(*Emulator)
	tick = func(em *Emulator) {
		fired = append(fired, em.Now())
		em.Schedule(em.Now()+1, tick)
	}
	e.Schedule(0, tick)
	runUntil(t, e, 10)
	if len(fired) != 10 {
		t.Fatalf("fired %d times in 10 s: %v", len(fired), fired)
	}
	for i, at := range fired {
		if math.Abs(at-float64(i)) > 1e-6 {
			t.Errorf("firing %d at t=%v", i, at)
		}
	}
}

// TestSteadyTickAllocatesNothing: with the flows placed, a tick's only
// allocations are the recorded series growing, which amortises to less
// than one allocation per tick — link series, a rescheduling event and the
// telemetry probes included.
func TestSteadyTickAllocatesNothing(t *testing.T) {
	e := labEmulator(t, Config{RecordLinkSeries: true})
	tunnels := []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()}
	for i := 0; i < 14; i++ {
		spec := greedySpec("f", uint8(i), tunnels[i%3])
		spec.DemandMbps = float64(1 + i%7)
		if _, err := e.AddFlow(spec); err != nil {
			t.Fatal(err)
		}
	}
	var tick func(*Emulator)
	tick = func(em *Emulator) {
		for _, p := range tunnels {
			if _, err := em.PathAvailableMbps(p); err != nil {
				t.Error(err)
			}
			if _, err := em.ProbeRTTms(p); err != nil {
				t.Error(err)
			}
			if _, err := em.PathMaxUtilization(p); err != nil {
				t.Error(err)
			}
		}
		em.Schedule(em.Now()+1, tick)
	}
	e.Schedule(0, tick)
	runUntil(t, e, 100)
	if allocs := testing.AllocsPerRun(200, e.Step); allocs != 0 {
		t.Errorf("a steady tick allocates %v times", allocs)
	}
}

// TestLinkAddedAfterNewIsRefused: the emulator's per-link state is sized
// when it is created; a path over a link the topology grew later must be
// turned away, not indexed out of range.
func TestLinkAddedAfterNewIsRefused(t *testing.T) {
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := New(lab, Config{})
	if err := lab.AddNode("late", topo.Host); err != nil {
		t.Fatal(err)
	}
	if err := lab.AddLink("late", topo.MIA, topo.LinkAttrs{CapacityMbps: 10}); err != nil {
		t.Fatal(err)
	}
	p := topo.Path{Nodes: []string{"late", topo.MIA}}
	if _, err := e.AddFlow(FlowSpec{Name: "f", Src: "late", Dst: topo.MIA, Path: p}); err == nil {
		t.Error("AddFlow accepted a link the emulator has no state for")
	}
	if _, err := e.ProbeRTTms(p); err == nil {
		t.Error("ProbeRTTms accepted a link the emulator has no state for")
	}
	if err := e.FailLink("late", topo.MIA); err == nil {
		t.Error("FailLink accepted a link the emulator has no state for")
	}
}
