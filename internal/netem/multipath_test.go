package netem

import (
	"math"
	"testing"

	"repro/internal/topo"
)

func multipathSpec(name string, paths ...topo.Path) FlowSpec {
	return FlowSpec{
		Name: name, Src: topo.HostMIA, Dst: topo.HostAMS,
		ToS: 4, Proto: 6, MultiPaths: paths,
	}
}

func TestMultipathAggregatesSubpathBottlenecks(t *testing.T) {
	// One M-PolKA-style flow over tunnels 2 and 3: subpath bottlenecks 10
	// and 5 Mbps, aggregate ≈ 15.
	e := labEmulator(t, Config{})
	id, err := e.AddFlow(multipathSpec("mp", topo.TunnelPath2(), topo.TunnelPath3()))
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	f, err := e.Flow(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.RateMbps-15) > 0.2 {
		t.Errorf("aggregate rate = %v, want ≈15", f.RateMbps)
	}
	if len(f.SubRates) != 2 {
		t.Fatalf("SubRates = %v", f.SubRates)
	}
	if math.Abs(f.SubRates[0]-10) > 0.2 || math.Abs(f.SubRates[1]-5) > 0.2 {
		t.Errorf("subpath rates = %v, want ≈[10 5]", f.SubRates)
	}
}

func TestMultipathSharesFairlyWithSinglePathFlows(t *testing.T) {
	// A multipath flow over tunnels 1+2 competes with a single-path flow
	// on tunnel 1: the tunnel-1 bottleneck splits 10/10 between the two
	// subflows crossing it, and the multipath flow adds tunnel 2 on top.
	e := labEmulator(t, Config{})
	mp, err := e.AddFlow(multipathSpec("mp", topo.TunnelPath1(), topo.TunnelPath2()))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := e.AddFlow(greedySpec("sp", 8, topo.TunnelPath1()))
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 15)
	fmp, _ := e.Flow(mp)
	fsp, _ := e.Flow(sp)
	if math.Abs(fsp.RateMbps-10) > 0.3 {
		t.Errorf("single-path rate = %v, want ≈10 (half of tunnel 1)", fsp.RateMbps)
	}
	if math.Abs(fmp.RateMbps-20) > 0.5 {
		t.Errorf("multipath rate = %v, want ≈20 (10 on tunnel 1 + 10 on tunnel 2)", fmp.RateMbps)
	}
}

func TestMultipathValidation(t *testing.T) {
	e := labEmulator(t, Config{})
	spec := multipathSpec("mp", topo.TunnelPath1(), topo.TunnelPath2())
	spec.DemandMbps = 5
	if _, err := e.AddFlow(spec); err == nil {
		t.Error("demand-capped multipath should fail")
	}
	bad := multipathSpec("mp", topo.TunnelPath1(), topo.Path{Nodes: []string{topo.HostMIA, topo.AMS, topo.HostAMS}})
	if _, err := e.AddFlow(bad); err == nil {
		t.Error("invalid subpath should fail")
	}
	id, err := e.AddFlow(multipathSpec("mp", topo.TunnelPath1(), topo.TunnelPath2()))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reroute(id, topo.TunnelPath3()); err == nil {
		t.Error("rerouting a multipath flow should fail")
	}
}

func TestMultipathSurvivesSubpathFailure(t *testing.T) {
	// Killing one subpath's link halves the flow, not kills it — the
	// M-PolKA resilience benefit.
	e := labEmulator(t, Config{})
	id, err := e.AddFlow(multipathSpec("mp", topo.TunnelPath2(), topo.TunnelPath3()))
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	if err := e.FailLink(topo.MIA, topo.CAL); err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 5)
	f, _ := e.Flow(id)
	if math.Abs(f.RateMbps-10) > 0.3 {
		t.Errorf("rate after subpath failure = %v, want ≈10 (tunnel-2 share survives)", f.RateMbps)
	}
	if f.SubRates[1] != 0 {
		t.Errorf("failed subpath rate = %v, want 0", f.SubRates[1])
	}
	if err := e.RestoreLink(topo.MIA, topo.CAL); err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	f, _ = e.Flow(id)
	if math.Abs(f.RateMbps-15) > 0.3 {
		t.Errorf("rate after restore = %v, want ≈15", f.RateMbps)
	}
}

func TestSingledPathFlowSnapshotHasOneSubRate(t *testing.T) {
	e := labEmulator(t, Config{})
	id, _ := e.AddFlow(greedySpec("f", 4, topo.TunnelPath1()))
	runFor(t, e, 5)
	f, _ := e.Flow(id)
	if len(f.SubRates) != 1 || math.Abs(f.SubRates[0]-f.RateMbps) > 1e-9 {
		t.Errorf("single-path SubRates = %v vs rate %v", f.SubRates, f.RateMbps)
	}
	// The snapshot's SubRates must be an independent copy.
	f.SubRates[0] = 12345
	g, _ := e.Flow(id)
	if g.SubRates[0] == 12345 {
		t.Error("snapshot aliases internal state")
	}
}
