// Package repro's root benchmarks: the hot-path set the CI allocation
// gate pins against GOBENCH_2.json (DataplaneForwarding/serial,
// DataplaneTableVsNaive, DataplaneLinkTiers, DataplaneFullSparse,
// NetemTick, HecateRecommend) plus the control loop's two
// cross-goroutine benchmarks (BusRequest, ControlLoopInsert), which run
// in the benchmark smoke step but are not pinned. Run them with
//
//	go test -run='^$' -bench=. -benchmem .
//
// The paper's figures are scenario metrics (labctl bench), not
// benchmarks; see README.md for how each maps onto the paper.
package repro

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/hecate"
	"repro/internal/link"
	"repro/internal/netem"
	"repro/internal/polka"
	"repro/internal/topo"
)

// --- Packet-level data plane (internal/dataplane) -------------------------

// newLabPacketEngine builds a packet engine over the Global P4 Lab with the
// three tunnel routes encoded, for the throughput benchmarks.
func newLabPacketEngine(b *testing.B) (*dataplane.Engine, []*dataplane.Route) {
	b.Helper()
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		b.Fatal(err)
	}
	routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
	domain, err := polka.NewDomain(routers, lab.MaxPort())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := dataplane.New(lab, dataplane.Config{Domain: domain})
	if err != nil {
		b.Fatal(err)
	}
	var routes []*dataplane.Route
	for _, tun := range []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()} {
		r, err := engine.UnicastRoute(tun)
		if err != nil {
			b.Fatal(err)
		}
		routes = append(routes, r)
	}
	return engine, routes
}

// BenchmarkDataplaneForwarding measures end-to-end packet forwarding
// throughput on the lab topology: each iteration injects a batch across the
// three tunnels and drains the engine. The pkts/s metric counts delivered
// packets; hops/s counts forwarding decisions. One untimed warm-up
// iteration grows the engine's pooled round state, so the timed loop
// measures the steady state — which must stay at zero allocations per op
// (the gobench CI gate pins allocs_per_op of the "serial" sub-benchmark
// with zero tolerance, so the name stays).
func BenchmarkDataplaneForwarding(b *testing.B) {
	const batch = 1024
	b.Run("serial", func(b *testing.B) {
		engine, routes := newLabPacketEngine(b)
		bufs := make([][]dataplane.Packet, len(routes))
		iter := func() (dataplane.Stats, error) {
			for ri, r := range routes {
				bufs[ri] = r.AppendPackets(bufs[ri][:0], batch/len(routes), 1500)
				if err := engine.InjectBatch(r.Inject, bufs[ri]); err != nil {
					return dataplane.Stats{}, err
				}
			}
			stats, err := engine.Run(context.Background())
			engine.Reset()
			return stats, err
		}
		if _, err := iter(); err != nil {
			b.Fatal(err)
		}
		var delivered, hops uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats, err := iter()
			if err != nil {
				b.Fatal(err)
			}
			if stats.Dropped() != 0 {
				b.Fatalf("dropped %d packets", stats.Dropped())
			}
			delivered += stats.Delivered
			hops += stats.Hops
		}
		b.StopTimer()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(delivered)/s, "pkts/s")
			b.ReportMetric(float64(hops)/s, "hops/s")
		}
	})
}

// BenchmarkDataplaneTableVsNaive compares the two forwarding
// implementations on identical routeIDs along a 10-hop path with degree-8
// node identifiers: the table-driven CRC reduction consuming the wire bytes
// (the hardware model) versus plain polynomial long division. The paper's
// claim is that the former makes per-hop forwarding essentially free on
// switch CRC units; the measured speedup is the tracked number.
func BenchmarkDataplaneTableVsNaive(b *testing.B) {
	const hops = 10
	names := make([]string, hops)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	// maxPort 200 forces degree-8 identifiers, giving a ~80-bit routeID.
	domain, err := polka.NewDomain(names, 200)
	if err != nil {
		b.Fatal(err)
	}
	path := make([]polka.PathHop, hops)
	for i := range path {
		path[i] = polka.PathHop{Node: names[i], Port: uint64(i%5 + 1)}
	}
	rid, err := domain.EncodePath(path)
	if err != nil {
		b.Fatal(err)
	}
	ridBytes := polka.RouteIDBytes(rid)
	switches := make([]*polka.Switch, hops)
	for i, name := range names {
		sw, err := domain.Switch(name)
		if err != nil {
			b.Fatal(err)
		}
		switches[i] = sw
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, sw := range switches {
				if sw.OutputPortBytes(ridBytes) != path[j].Port {
					b.Fatal("wrong port")
				}
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, sw := range switches {
				if sw.OutputPortNaive(rid) != path[j].Port {
					b.Fatal("wrong port")
				}
			}
		}
	})
}

// benchInjectRunReset times the engine op — stamp each route's packets
// into a recycled buffer, inject, Run to completion, Reset — after one
// untimed op that grows every pool, so allocs/op is the steady state.
func benchInjectRunReset(b *testing.B, engine *dataplane.Engine, routes []*dataplane.Route, perRoute int, size func(route int) int) {
	b.Helper()
	bufs := make([][]dataplane.Packet, len(routes))
	op := func() dataplane.Stats {
		for i, r := range routes {
			bufs[i] = r.AppendPackets(bufs[i][:0], perRoute, size(i))
			if err := engine.InjectBatch(r.Inject, bufs[i]); err != nil {
				b.Fatal(err)
			}
		}
		stats, err := engine.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if stats.Dropped() != 0 {
			b.Fatalf("dropped %d packets", stats.Dropped())
		}
		engine.Reset()
		return stats
	}
	op()
	var delivered uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered += op().Delivered
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(delivered)/s, "pkts/s")
	}
}

// BenchmarkDataplaneLinkTiers compares end-to-end engine throughput across
// the link tiers on the lab's three tunnels: the fast tier's direct
// handoff, the full tier with transparent links (the event loop's
// bookkeeping overhead, nothing modeled), and the full tier with the
// topology's real rates and delays.
func BenchmarkDataplaneLinkTiers(b *testing.B) {
	const batch = 1024
	for _, tier := range []struct {
		name string
		cfg  dataplane.Config
	}{
		{"fast", dataplane.Config{}},
		{"full-transparent", dataplane.Config{LinkMode: dataplane.LinkFull,
			Link: link.FullConfig{RateMbps: -1, DelayMs: -1}}},
		{"full-modeled", dataplane.Config{LinkMode: dataplane.LinkFull, Seed: 1}},
	} {
		b.Run(tier.name, func(b *testing.B) {
			lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
			if err != nil {
				b.Fatal(err)
			}
			routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
			domain, err := polka.NewDomain(routers, lab.MaxPort())
			if err != nil {
				b.Fatal(err)
			}
			cfg := tier.cfg
			cfg.Domain = domain
			engine, err := dataplane.New(lab, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var routes []*dataplane.Route
			for _, tun := range []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()} {
				r, err := engine.UnicastRoute(tun)
				if err != nil {
					b.Fatal(err)
				}
				routes = append(routes, r)
			}
			benchInjectRunReset(b, engine, routes, batch/len(routes), func(int) int { return 1500 })
		})
	}
}

// BenchmarkDataplaneFullSparse is the full tier used sparsely: a k=16
// fat-tree (5120 directed full-tier links) carrying 64 flows of 4 frames,
// every flow a frame size of its own so that nearly every arrival is an
// instant of its own. The op touches a few hundred links; what it costs
// must not depend on the five thousand it leaves idle, in Run or in Reset.
func BenchmarkDataplaneFullSparse(b *testing.B) {
	const k, perPod = 16, 4
	ft, err := topo.FatTree(topo.DefaultFatTreeConfig(k))
	if err != nil {
		b.Fatal(err)
	}
	routers := append(ft.NodesOfKind(topo.Edge), ft.NodesOfKind(topo.Core)...)
	domain, err := polka.NewDomain(routers, ft.MaxPort())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := dataplane.New(ft, dataplane.Config{Domain: domain,
		LinkMode: dataplane.LinkFull, Link: link.FullConfig{QueuePkts: 64}})
	if err != nil {
		b.Fatal(err)
	}
	table := ft.SPTable(topo.ByHops)
	var routes []*dataplane.Route
	for pod := 0; pod < k; pod++ {
		for f := 0; f < perPod; f++ {
			src := fmt.Sprintf("pod%d-edge%d-h0", pod, f)
			dst := fmt.Sprintf("pod%d-edge%d-h1", (pod+1+f)%k, f)
			p, err := table.Path(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			r, err := engine.UnicastRoute(p)
			if err != nil {
				b.Fatal(err)
			}
			routes = append(routes, r)
		}
	}
	benchInjectRunReset(b, engine, routes, 4, func(route int) int { return 1500 - 4*route })
}

// labTunnels are the three lab tunnels the control loop places flows on.
func labTunnels() []topo.Path {
	return []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()}
}

// addLoopFlows loads the emulator the way the repo benchmark's control-loop
// workload does: 14 capped flows, 1–10 Mbps, spread over the three tunnels.
func addLoopFlows(b *testing.B, emu *netem.Emulator) []netem.FlowID {
	tunnels := labTunnels()
	ids := make([]netem.FlowID, 14)
	for i := range ids {
		p := tunnels[i%len(tunnels)]
		id, err := emu.AddFlow(netem.FlowSpec{
			Name: fmt.Sprintf("f%d", i), Src: p.Nodes[0], Dst: p.Nodes[len(p.Nodes)-1],
			Proto: 6, DemandMbps: float64(1 + i%10), Path: p,
		})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// BenchmarkNetemTick times one fluid tick of the emulator in the control
// loop's steady state — the lab, 14 capped flows — with link-utilization
// recording off and on. A tick allocates nothing but the growth of the
// series it records, which amortises below one allocation per op.
func BenchmarkNetemTick(b *testing.B) {
	for _, c := range []struct {
		name   string
		series bool
	}{{"series-off", false}, {"series-on", true}} {
		b.Run(c.name, func(b *testing.B) {
			lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
			if err != nil {
				b.Fatal(err)
			}
			emu := netem.New(lab, netem.Config{RecordLinkSeries: c.series})
			addLoopFlows(b, emu)
			// Past the ramp, and far enough that no series buffer reallocates
			// within the 200 timed ticks of the pinned run (GOBENCH_2.json
			// holds both cases at 0 B/op).
			for i := 0; i < 1500; i++ {
				emu.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emu.Step()
			}
		})
	}
}

// wigglySeries is a fixed n-sample history with structure at two periods
// and seeded noise: enough variance that Hecate fits real forests to it.
func wigglySeries(n int, seed uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		noise := float64(seed>>40)/float64(1<<24) - 0.5
		out[i] = 10 + 4*math.Sin(float64(i)/7) + 2*math.Sin(float64(i)/2.3) + noise
	}
	return out
}

// BenchmarkHecateRecommend times one askHecatePath as the service computes
// it: three candidate paths, Random Forests fitted to 120-sample
// histories, a ten-step recursive forecast each from the last ten samples.
func BenchmarkHecateRecommend(b *testing.B) {
	opt, err := hecate.New(hecate.Config{})
	if err != nil {
		b.Fatal(err)
	}
	recent := map[string][]float64{}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("tunnel%d", i)
		hist := wigglySeries(120, uint64(i))
		if err := opt.TrainPath(name, hist); err != nil {
			b.Fatal(err)
		}
		recent[name] = hist[len(hist)-10:]
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rec hecate.Recommendation
	for i := 0; i < b.N; i++ {
		if rec, err = opt.Recommend(recent, hecate.MaxBandwidth); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rec.Path == "" {
		b.Fatal("no recommendation")
	}
}

// BenchmarkBusRequest times one request/reply round trip over the
// in-process bus to an echo service on another goroutine: through a
// long-lived bus.Requester (an inbox of its own, the control plane's
// shape) and through the one-shot bus.Request, which subscribes per call.
func BenchmarkBusRequest(b *testing.B) {
	inproc := bus.NewInProc()
	defer inproc.Close()
	ch, cancel, err := inproc.Subscribe("echo")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for req := range ch {
			if reply, err := bus.Reply(req, req.ReplyTo, "return", struct{}{}); err == nil {
				_ = inproc.Publish(reply) // a failed publish shows as the requester's timeout
			}
		}
	}()
	defer func() {
		cancel()
		<-done
	}()
	b.Run("requester", func(b *testing.B) {
		r, err := bus.NewRequester(inproc, "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Request(bus.Message{Topic: "echo", Type: "ping"}, time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bus.Request(inproc, bus.Message{Topic: "echo", Type: "ping"}, "echo.reply", time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkControlLoopInsert times the paper's loop end to end, as the repo
// benchmark's control-loop workload runs it: one emulated second (ten
// ticks and a telemetry collection) and one optimizer-placed flow — three
// telemetry queries, a Hecate forecast over Random Forests and a PolKA
// tunnel binding, seven bus round trips across five service goroutines.
func BenchmarkControlLoopInsert(b *testing.B) {
	fw, err := controlplane.NewFramework(controlplane.FrameworkConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Stop()
	ctx := context.Background()
	tunnels := labTunnels()
	// Six background flows that keep moving between the tunnels, so the
	// telemetry Hecate trains on is not flat.
	bg := addLoopFlows(b, fw.Emu)[:6]
	for t := 0; t < 120; t += 5 {
		if err := fw.Emu.Reroute(bg[(t/5)%len(bg)], tunnels[(t/5+t/15)%len(tunnels)]); err != nil {
			b.Fatal(err)
		}
		if err := fw.RunFor(ctx, 5); err != nil {
			b.Fatal(err)
		}
	}
	if err := fw.Control.TrainHecateContext(ctx, "max-bandwidth", 120); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.RunFor(ctx, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := fw.Dash.InsertNewFlow(controlplane.FlowRequest{
			Name: fmt.Sprintf("req%d", i%8), ToS: uint8(i % 8), DemandMbps: float64(1 + i%10),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
