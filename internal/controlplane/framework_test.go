package controlplane

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/hecate"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// newLabFramework assembles the framework on the Global P4 Lab topology
// with a fast linear model so tests stay quick.
func newLabFramework(t *testing.T) *Framework {
	t.Helper()
	f, err := NewFramework(FrameworkConfig{
		Netem:          netem.Config{TickSeconds: 0.1, RampMbpsPerSec: 100},
		Hecate:         hecate.Config{Lag: 10, Horizon: 10, Model: "LR"},
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// runFor advances the framework's emulated clock by d seconds.
func runFor(t *testing.T, f *Framework, d float64) {
	t.Helper()
	if err := f.RunFor(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

// warmup runs the emulator long enough to accumulate telemetry history
// and trains the Hecate models on it.
func warmup(t *testing.T, f *Framework, objective string, seconds float64) {
	t.Helper()
	if err := f.Warmup(context.Background(), objective, seconds); err != nil {
		t.Fatal(err)
	}
}

func TestFig4SequenceEndToEnd(t *testing.T) {
	f := newLabFramework(t)
	warmup(t, f, "max-bandwidth", 60)

	resp, err := f.Dash.InsertNewFlow(FlowRequest{Name: "flow1", ToS: 4})
	if err != nil {
		t.Fatal(err)
	}
	// On the idle constrained lab, tunnel 1 (20 Mbps bottleneck) has the
	// most available bandwidth.
	if resp.TunnelID != 1 {
		t.Errorf("flow placed on tunnel %d, want 1 (most available bandwidth)", resp.TunnelID)
	}
	if !strings.Contains(resp.Path, "SAO") {
		t.Errorf("path = %q", resp.Path)
	}
	if resp.Score < 15 {
		t.Errorf("score = %v, want ≈20 (predicted available bandwidth)", resp.Score)
	}
	// The flow is live in the emulator and ramps up.
	id, ok := f.Polka.FlowID("flow1")
	if !ok {
		t.Fatal("flow not registered with the PolKA service")
	}
	runFor(t, f, 10)
	fl, err := f.Emu.Flow(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fl.RateMbps-20) > 0.5 {
		t.Errorf("flow rate = %v, want ≈20", fl.RateMbps)
	}
	// The edge configuration shows ACL + PBR + tunnels, Fig. 10 style.
	cfgText := f.Polka.EdgeConfig()
	for _, want := range []string{"hostname MIA", "access-list flow1", "pbr flow1 tunnel 1", "interface tunnel3"} {
		if !strings.Contains(cfgText, want) {
			t.Errorf("edge config missing %q:\n%s", want, cfgText)
		}
	}
}

func TestOptimizerAvoidsLoadedTunnel(t *testing.T) {
	f := newLabFramework(t)
	// Saturate tunnel 1 first, pinned (phase (i): arbitrary allocation).
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "hog", ToS: 4, PinTunnel: 1}); err != nil {
		t.Fatal(err)
	}
	warmup(t, f, "max-bandwidth", 60)

	// A second flow must now land on tunnel 2 (10 Mbps free) rather than
	// the saturated tunnel 1.
	resp, err := f.Dash.InsertNewFlow(FlowRequest{Name: "flow2", ToS: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TunnelID != 2 {
		t.Errorf("second flow placed on tunnel %d, want 2 (tunnel 1 saturated)", resp.TunnelID)
	}
}

func TestMinLatencyObjectivePicksTunnel2(t *testing.T) {
	f := newLabFramework(t)
	warmup(t, f, "min-latency", 60)
	resp, err := f.Dash.InsertNewFlow(FlowRequest{Name: "lat", ToS: 4, Objective: "min-latency"})
	if err != nil {
		t.Fatal(err)
	}
	// Tunnel 1 carries the 20 ms tc delay; tunnel 2 is the fastest.
	if resp.TunnelID != 2 {
		t.Errorf("min-latency flow placed on tunnel %d, want 2", resp.TunnelID)
	}
}

func TestPinnedPlacementAndMigration(t *testing.T) {
	f := newLabFramework(t)
	// Pin to tunnel 1, then migrate to tunnel 2 via a second request —
	// the PBR retarget path.
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "m", ToS: 4, PinTunnel: 1}); err != nil {
		t.Fatal(err)
	}
	runFor(t, f, 5)
	resp, err := f.Dash.InsertNewFlow(FlowRequest{Name: "m", ToS: 4, PinTunnel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TunnelID != 2 {
		t.Errorf("migration landed on tunnel %d", resp.TunnelID)
	}
	if tgt, err := pbrTarget(f, "m"); err != nil || tgt != 2 {
		t.Errorf("PBR target = %d, %v", tgt, err)
	}
	// Only ONE flow exists; it was rerouted, not duplicated.
	if got := len(f.Emu.Flows()); got != 1 {
		t.Errorf("flow count = %d, want 1", got)
	}
	runFor(t, f, 10)
	id, _ := f.Polka.FlowID("m")
	fl, _ := f.Emu.Flow(id)
	if math.Abs(fl.RateMbps-10) > 0.5 {
		t.Errorf("migrated rate = %v, want ≈10 (tunnel 2 bottleneck)", fl.RateMbps)
	}
}

// pbrTarget reads the PBR binding back out of the emitted edge config.
func pbrTarget(f *Framework, acl string) (int, error) {
	cfgText := f.Polka.EdgeConfig()
	for _, line := range strings.Split(cfgText, "\n") {
		var name string
		var id int
		if n, _ := fmt.Sscanf(line, "pbr %s tunnel %d", &name, &id); n == 2 && name == acl {
			return id, nil
		}
	}
	return 0, errors.New("no PBR entry for " + acl)
}

func TestErrorPropagation(t *testing.T) {
	f := newLabFramework(t)
	warmup(t, f, "max-bandwidth", 60)
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: ""}); err == nil {
		t.Error("unnamed flow should be rejected")
	}
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "x", DemandMbps: -1}); err == nil {
		t.Error("negative demand should be rejected")
	}
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "x", PinTunnel: 99}); err == nil {
		t.Error("unknown tunnel should be rejected")
	}
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "x", Objective: "nonsense"}); err == nil {
		t.Error("unknown objective should be rejected")
	}
	if _, err := f.Dash.Telemetry("no:such:series", 5); err == nil {
		t.Error("unknown telemetry series should be rejected")
	}
}

func TestDashboardTelemetryFeed(t *testing.T) {
	f := newLabFramework(t)
	runFor(t, f, 30)
	vals, err := f.Dash.Telemetry(telemetry.PathBandwidthKey("tunnel1"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 10 {
		t.Fatalf("got %d samples", len(vals))
	}
	for _, v := range vals {
		if math.Abs(v-20) > 1e-6 {
			t.Errorf("idle tunnel-1 available bandwidth = %v, want 20", v)
		}
	}
	rtts, err := f.Dash.Telemetry(telemetry.PathRTTKey("tunnel2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 5 || rtts[0] <= 0 {
		t.Errorf("rtt samples = %v", rtts)
	}
}

func TestFrameworkOverTCPBus(t *testing.T) {
	// The same framework, services talking through the TCP broker.
	br, err := bus.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	client, err := bus.DialBroker(br.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f, err := NewFramework(FrameworkConfig{
		Bus:            client,
		Netem:          netem.Config{TickSeconds: 0.1, RampMbpsPerSec: 100},
		Hecate:         hecate.Config{Lag: 10, Horizon: 10, Model: "LR"},
		RequestTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	// Let the broker register all service subscriptions before use.
	time.Sleep(100 * time.Millisecond)
	warmup(t, f, "max-bandwidth", 60)
	resp, err := f.Dash.InsertNewFlow(FlowRequest{Name: "tcp-flow", ToS: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TunnelID != 1 {
		t.Errorf("placed on tunnel %d, want 1", resp.TunnelID)
	}
}

func TestRouteIDsAreValidForAllTunnels(t *testing.T) {
	f := newLabFramework(t)
	top := f.Emu.Topology()
	for id := 1; id <= 3; id++ {
		p, err := f.TunnelPath(id)
		if err != nil {
			t.Fatal(err)
		}
		hops, err := routerHops(top, p)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := f.Polka.Domain().EncodePath(hops)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Polka.Domain().VerifyPath(rid, hops); err != nil {
			t.Errorf("tunnel %d routeID does not verify: %v", id, err)
		}
	}
	if _, err := f.TunnelPath(42); err == nil {
		t.Error("unknown tunnel path should fail")
	}
}

func TestRouterSegmentAndHops(t *testing.T) {
	f := newLabFramework(t)
	top := f.Emu.Topology()
	seg := routerSegment(top, topo.TunnelPath3())
	want := []string{"MIA", "CAL", "CHI", "AMS"}
	if len(seg) != len(want) {
		t.Fatalf("segment = %v", seg)
	}
	for i := range want {
		if seg[i] != want[i] {
			t.Errorf("segment[%d] = %q, want %q", i, seg[i], want[i])
		}
	}
	hops, err := routerHops(top, topo.TunnelPath3())
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 4 {
		t.Fatalf("hops = %v", hops)
	}
	// The final router's port must face host2.
	ams, _ := top.Node(topo.AMS)
	wantPort, _ := ams.Port(topo.HostAMS)
	if hops[3].Port != wantPort {
		t.Errorf("egress port = %d, want %d", hops[3].Port, wantPort)
	}
}
