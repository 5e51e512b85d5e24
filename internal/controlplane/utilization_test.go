package controlplane

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/topo"
)

func TestPathMaxUtilizationTelemetry(t *testing.T) {
	f := newLabFramework(t)
	// Saturate tunnel 2 (bottleneck MIA-CHI at 10 Mbps).
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "load", ToS: 4, PinTunnel: 2}); err != nil {
		t.Fatal(err)
	}
	runFor(t, f, 20)
	vals, err := f.Dash.Telemetry(telemetry.PathUtilKey("tunnel2"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v < 0.99 {
			t.Errorf("tunnel-2 max utilization = %v, want ≈1", v)
		}
	}
	// Tunnel 3 shares CHI->AMS with tunnel 2; its max utilization should
	// reflect the shared link's load (10/20 = 0.5), not its idle edges.
	vals, err = f.Dash.Telemetry(telemetry.PathUtilKey("tunnel3"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] < 0.45 || vals[0] > 0.55 {
		t.Errorf("tunnel-3 max utilization = %v, want ≈0.5 (shared CHI->AMS)", vals[0])
	}
}

func TestMinMaxUtilizationObjectiveEndToEnd(t *testing.T) {
	f := newLabFramework(t)
	// Load tunnel 1 so its utilization is high.
	if _, err := f.Dash.InsertNewFlow(FlowRequest{Name: "load", ToS: 4, PinTunnel: 1}); err != nil {
		t.Fatal(err)
	}
	warmup(t, f, "min-max-utilization", 60)
	resp, err := f.Dash.InsertNewFlow(FlowRequest{
		Name: "balanced", ToS: 8, Objective: "min-max-utilization",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tunnel 1 is saturated (util 1); tunnels 2 and 3 share CHI->AMS at
	// util 0; the recommendation must avoid tunnel 1.
	if resp.TunnelID == 1 {
		t.Errorf("min-max-utilization placed the flow on the saturated tunnel 1")
	}
}

func TestTelemetryCSVExport(t *testing.T) {
	f := newLabFramework(t)
	runFor(t, f, 5)
	var sb strings.Builder
	store := f.Telemetry.Store()
	if err := store.WriteCSV(&sb, telemetry.PathBandwidthKey("tunnel1")); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "series,time_s,value\n") {
		t.Errorf("missing header: %q", out[:40])
	}
	if !strings.Contains(out, "path:tunnel1:available_mbps") {
		t.Error("missing series rows")
	}
	lines := strings.Count(out, "\n")
	if lines < 5 {
		t.Errorf("only %d csv lines", lines)
	}
	if err := store.WriteCSV(&sb, "no-such-series"); err == nil {
		t.Error("unknown series export should fail")
	}
	// Full export covers bandwidth, rtt and utilization series.
	sb.Reset()
	if err := store.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"available_mbps", "rtt_ms", "max_util"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("full export missing %s series", want)
		}
	}
}

func TestUtilizationOfFailedPathIsOne(t *testing.T) {
	f := newLabFramework(t)
	if err := f.Emu.FailLink(topo.MIA, topo.SAO); err != nil {
		t.Fatal(err)
	}
	u, err := f.Emu.PathMaxUtilization(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if u != 1 {
		t.Errorf("failed path utilization = %v, want 1", u)
	}
}
