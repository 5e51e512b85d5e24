package netem

import (
	"math"
	"testing"

	"repro/internal/topo"
)

func TestFailLinkBlackholesFlow(t *testing.T) {
	e := labEmulator(t, Config{})
	id, err := e.AddFlow(greedySpec("f1", 4, topo.TunnelPath1()))
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	f, _ := e.Flow(id)
	if f.RateMbps < 19 {
		t.Fatalf("flow did not ramp: %v", f.RateMbps)
	}
	if err := e.FailLink(topo.MIA, topo.SAO); err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 2)
	f, _ = e.Flow(id)
	if f.RateMbps != 0 {
		t.Errorf("flow rate over failed link = %v, want 0", f.RateMbps)
	}
	// Rerouting restores throughput (the failure-recovery primitive).
	if err := e.Reroute(id, topo.TunnelPath2()); err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	f, _ = e.Flow(id)
	if math.Abs(f.RateMbps-10) > 0.5 {
		t.Errorf("rerouted rate = %v, want ≈10", f.RateMbps)
	}
}

func TestFailLinkAffectsProbesAndAvailability(t *testing.T) {
	e := labEmulator(t, Config{})
	if err := e.FailLink(topo.MIA, topo.SAO); err != nil {
		t.Fatal(err)
	}
	rtt, err := e.ProbeRTTms(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if rtt != UnreachableRTTms {
		t.Errorf("RTT over failed path = %v, want UnreachableRTTms", rtt)
	}
	avail, err := e.PathAvailableMbps(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if avail != 0 {
		t.Errorf("availability over failed path = %v, want 0", avail)
	}
	// Other tunnels are unaffected.
	rtt2, _ := e.ProbeRTTms(topo.TunnelPath2())
	if rtt2 >= UnreachableRTTms {
		t.Error("tunnel 2 should be unaffected")
	}
	up, err := e.PathUp(topo.TunnelPath1())
	if err != nil || up {
		t.Errorf("PathUp(tunnel1) = %v, %v; want false", up, err)
	}
	up, _ = e.PathUp(topo.TunnelPath2())
	if !up {
		t.Error("PathUp(tunnel2) should be true")
	}
}

func TestRestoreLink(t *testing.T) {
	e := labEmulator(t, Config{})
	if err := e.FailLink(topo.MIA, topo.SAO); err != nil {
		t.Fatal(err)
	}
	if !e.LinkDown("MIA->SAO") || !e.LinkDown("SAO->MIA") {
		t.Error("both directions should be down")
	}
	if err := e.RestoreLink(topo.MIA, topo.SAO); err != nil {
		t.Fatal(err)
	}
	if e.LinkDown("MIA->SAO") {
		t.Error("link should be back up")
	}
	id, _ := e.AddFlow(greedySpec("f1", 4, topo.TunnelPath1()))
	runFor(t, e, 10)
	f, _ := e.Flow(id)
	if f.RateMbps < 19 {
		t.Errorf("flow over restored link = %v, want ≈20", f.RateMbps)
	}
}

func TestFailUnknownLink(t *testing.T) {
	e := labEmulator(t, Config{})
	if err := e.FailLink("MIA", "nope"); err == nil {
		t.Error("unknown link should fail")
	}
	if err := e.RestoreLink("MIA", "nope"); err == nil {
		t.Error("unknown link restore should fail")
	}
	if _, err := e.PathUp(topo.Path{Nodes: []string{"MIA"}}); err == nil {
		t.Error("short path should fail")
	}
}
