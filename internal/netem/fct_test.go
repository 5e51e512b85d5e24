package netem

import (
	"math"
	"testing"

	"repro/internal/topo"
)

func TestFiniteFlowCompletes(t *testing.T) {
	e := labEmulator(t, Config{TickSeconds: 0.1, RampMbpsPerSec: 1000})
	spec := greedySpec("dl", 4, topo.TunnelPath1())
	spec.SizeMB = 10 // 80 Mbit over a 20 Mbps bottleneck ≈ 4 s
	id, err := e.AddFlow(spec)
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, e, 10)
	f, _ := e.Flow(id)
	if f.Active {
		t.Fatal("finite flow still active after 10 s")
	}
	if f.CompletedAt < 3.5 || f.CompletedAt > 5 {
		t.Errorf("completed at %v, want ≈4 s", f.CompletedAt)
	}
	if f.Bytes < 10e6 {
		t.Errorf("delivered %v bytes, want ≥ 10 MB", f.Bytes)
	}
	if f.RateMbps != 0 {
		t.Errorf("completed flow rate = %v", f.RateMbps)
	}
}

func TestFiniteFlowReleasesCapacity(t *testing.T) {
	e := labEmulator(t, Config{TickSeconds: 0.1, RampMbpsPerSec: 1000})
	short := greedySpec("short", 4, topo.TunnelPath1())
	short.SizeMB = 5
	a, _ := e.AddFlow(short)
	b, _ := e.AddFlow(greedySpec("long", 8, topo.TunnelPath1()))
	runFor(t, e, 20)
	fa, _ := e.Flow(a)
	fb, _ := e.Flow(b)
	if fa.Active {
		t.Fatal("short flow never completed")
	}
	if math.Abs(fb.RateMbps-20) > 0.2 {
		t.Errorf("survivor rate = %v, want ≈20 after the short flow finished", fb.RateMbps)
	}
}

func TestUnboundedFlowNeverCompletes(t *testing.T) {
	e := labEmulator(t, Config{})
	id, _ := e.AddFlow(greedySpec("inf", 4, topo.TunnelPath1()))
	runFor(t, e, 30)
	f, _ := e.Flow(id)
	if !f.Active || f.CompletedAt != -1 {
		t.Errorf("unbounded flow state: active=%v completedAt=%v", f.Active, f.CompletedAt)
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	e := labEmulator(t, Config{})
	spec := greedySpec("bad", 4, topo.TunnelPath1())
	spec.SizeMB = -1
	if _, err := e.AddFlow(spec); err == nil {
		t.Error("negative size should fail")
	}
}
