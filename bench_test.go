// Package repro's root benchmark harness: one benchmark per table/figure
// of the paper's evaluation (Section V), ablations of the design choices,
// and throughput benchmarks for the packet-level data plane
// (internal/dataplane). Run everything with
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute the same experiment drivers as the CLIs
// (cmd/mlcompare, cmd/labdemo, cmd/dataplanedemo), so each timed iteration
// regenerates the corresponding artifact end to end. See README.md for the
// module layout and how each benchmark maps onto the paper.
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
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/gf2"
	"repro/internal/hecate"
	"repro/internal/link"
	"repro/internal/ml"
	"repro/internal/netem"
	"repro/internal/polka"
	"repro/internal/rl"
	"repro/internal/srbase"
	"repro/internal/topo"
)

// benchTestbedConfig keeps the emulated experiments short enough to time.
func benchTestbedConfig() experiments.TestbedConfig {
	return experiments.TestbedConfig{
		Model:             "LR",
		Phase1Sec:         20,
		Phase2Sec:         20,
		SampleIntervalSec: 1,
		WarmupSec:         30,
	}
}

// BenchmarkFig1Forwarding times the Fig. 1 worked example's data-plane
// operation: one PolKA mod-forwarding decision at node s2.
func BenchmarkFig1Forwarding(b *testing.B) {
	d, err := polka.NewDomainWithIDs(map[string]gf2.Poly{
		"s1": gf2.FromUint64(0b11),
		"s2": gf2.FromUint64(0b111),
		"s3": gf2.FromUint64(0b1011),
	})
	if err != nil {
		b.Fatal(err)
	}
	rid, err := d.EncodePath([]polka.PathHop{{Node: "s1", Port: 1}, {Node: "s2", Port: 2}, {Node: "s3", Port: 6}})
	if err != nil {
		b.Fatal(err)
	}
	s2, _ := d.Switch("s2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s2.OutputPort(rid) != 2 {
			b.Fatal("wrong port")
		}
	}
}

// BenchmarkFig5bDatasetGeneration times synthesizing the 500 s two-path
// UQ-like trace.
func BenchmarkFig5bDatasetGeneration(b *testing.B) {
	cfg := dataset.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := dataset.Generate(cfg)
		if tr.Len() != 500 {
			b.Fatal("bad trace")
		}
	}
}

// BenchmarkFig6RegressorSweep times the full 18-model RMSE comparison on
// both paths — the whole Fig. 6 regeneration.
func BenchmarkFig6RegressorSweep(b *testing.B) {
	cfg := experiments.DefaultMLConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMLComparisonContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 18 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkFig7RandomForestPredict times the Fig. 7 artifact: Random
// Forest fitted and evaluated on both paths.
func BenchmarkFig7RandomForestPredict(b *testing.B) {
	cfg := experiments.DefaultMLConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunObservedVsPredictedContext(context.Background(), "RFR", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8GaussianProcessPredict times the Fig. 8 artifact: the
// (pathological) Gaussian Process fitted and evaluated on both paths.
func BenchmarkFig8GaussianProcessPredict(b *testing.B) {
	cfg := experiments.DefaultMLConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunObservedVsPredictedContext(context.Background(), "GPR", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11LatencyMigration times testbed experiment 1 end to end:
// framework bring-up, training, pinned phase, optimizer consultation, PBR
// migration, and probing.
func BenchmarkFig11LatencyMigration(b *testing.B) {
	cfg := benchTestbedConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLatencyMigrationContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.ToTunnel != 2 {
			b.Fatalf("migration landed on tunnel %d", res.ToTunnel)
		}
	}
}

// BenchmarkFig12FlowAggregation times testbed experiment 2 end to end.
func BenchmarkFig12FlowAggregation(b *testing.B) {
	cfg := benchTestbedConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFlowAggregationContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Phase2MeanTotal < 30 {
			b.Fatalf("aggregate only reached %v Mbps", res.Phase2MeanTotal)
		}
	}
}

// BenchmarkMinMaxOptimizer times the Section III flow-model solvers on the
// Fig. 2 two-path instance.
func BenchmarkMinMaxOptimizer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hecate.MinMaxSplit(15, 20, 10); err != nil {
			b.Fatal(err)
		}
		if _, err := hecate.MinDelaySplit(8, 10, 10); err != nil {
			b.Fatal(err)
		}
		if _, err := hecate.LinearCostSplit(8, 10, 10, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationRouteIDCRT times route computation from scratch for a
// 5-hop path, versus the precomputed-basis variant below — the PolKA
// controller's cost to provision a tunnel.
func BenchmarkAblationRouteIDCRT(b *testing.B) {
	moduli := gf2.IrreducibleSequence(4, 5)
	residues := make([]gf2.Poly, len(moduli))
	for i := range residues {
		residues[i] = gf2.FromUint64(uint64(i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gf2.CRT(residues, moduli); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRouteIDCRTBasis amortizes the CRT basis across route
// computations sharing the same core nodes.
func BenchmarkAblationRouteIDCRTBasis(b *testing.B) {
	moduli := gf2.IrreducibleSequence(4, 5)
	basis, err := gf2.NewCRTBasis(moduli)
	if err != nil {
		b.Fatal(err)
	}
	residues := make([]gf2.Poly, len(moduli))
	for i := range residues {
		residues[i] = gf2.FromUint64(uint64(i + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := basis.Solve(residues); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPolkaVsPortSwitching compares the two data planes on
// the same 4-router tunnel: per-packet forwarding across the whole path.
// PolKA reads one immutable label; port switching pops a label per hop.
func BenchmarkAblationPolkaVsPortSwitching(b *testing.B) {
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		b.Fatal(err)
	}
	routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
	domain, err := polka.NewDomain(routers, lab.MaxPort())
	if err != nil {
		b.Fatal(err)
	}
	path := topo.TunnelPath3()
	ports, err := lab.PortsAlong(path)
	if err != nil {
		b.Fatal(err)
	}
	// Router-only hops (skip the host's virtual egress).
	var hops []polka.PathHop
	ports16 := make([]uint16, 0, len(ports))
	for i := 0; i+1 < len(path.Nodes); i++ {
		n, _ := lab.Node(path.Nodes[i])
		if n.Kind == topo.Host {
			continue
		}
		hops = append(hops, polka.PathHop{Node: path.Nodes[i], Port: ports[i]})
		ports16 = append(ports16, uint16(ports[i]))
	}
	rid, err := domain.EncodePath(hops)
	if err != nil {
		b.Fatal(err)
	}
	stack, err := srbase.NewLabelStack(ports16)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("polka", func(b *testing.B) {
		switches := make([]*polka.Switch, len(hops))
		for i, h := range hops {
			sw, err := domain.Switch(h.Node)
			if err != nil {
				b.Fatal(err)
			}
			switches[i] = sw
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, sw := range switches {
				if sw.OutputPort(rid) != hops[j].Port {
					b.Fatal("wrong port")
				}
			}
		}
	})
	b.Run("portswitching", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := stack.Clone()
			for j := range ports16 {
				p, err := c.Pop()
				if err != nil || p != ports16[j] {
					b.Fatal("wrong pop")
				}
			}
		}
	})
	b.Run("headerbytes", func(b *testing.B) {
		// Not a timing comparison: report the wire sizes as custom metrics.
		hdr := polka.Header{RouteID: rid, ToS: 4, Proto: 6}
		b.ReportMetric(float64(hdr.WireSize()), "polka-bytes")
		b.ReportMetric(float64(stack.WireSize()), "stack-bytes")
		for i := 0; i < b.N; i++ {
			_ = hdr.WireSize()
		}
	})
}

// BenchmarkAblationReactiveVsPredictive compares the Section III
// "current-QoS" heuristic with the 10-step predictive recommendation on
// the UQ trace, timing a decision of each kind.
func BenchmarkAblationReactiveVsPredictive(b *testing.B) {
	tr := dataset.Generate(dataset.DefaultConfig())
	wifi, lte := tr.WiFi.Values(), tr.LTE.Values()
	split := dataset.SplitIndex(tr.Len(), 0.75)
	opt, err := hecate.New(hecate.Config{Lag: 10, Horizon: 10, Model: "RFR"})
	if err != nil {
		b.Fatal(err)
	}
	if err := opt.TrainPath("wifi", wifi[:split]); err != nil {
		b.Fatal(err)
	}
	if err := opt.TrainPath("lte", lte[:split]); err != nil {
		b.Fatal(err)
	}
	histories := map[string][]float64{
		"wifi": wifi[split : split+10],
		"lte":  lte[split : split+10],
	}
	b.Run("reactive", func(b *testing.B) {
		current := map[string]float64{"wifi": wifi[split+9], "lte": lte[split+9]}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := hecate.ReactiveBest(current, hecate.MaxBandwidth); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("predictive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Recommend(histories, hecate.MaxBandwidth); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHorizon compares 1-step versus 10-step recommendation
// cost (the prediction-horizon ablation of the Hecate optimizer).
func BenchmarkAblationHorizon(b *testing.B) {
	tr := dataset.Generate(dataset.DefaultConfig())
	wifi, lte := tr.WiFi.Values(), tr.LTE.Values()
	split := dataset.SplitIndex(tr.Len(), 0.75)
	for _, horizon := range []int{1, 10} {
		horizon := horizon
		b.Run(map[int]string{1: "h1", 10: "h10"}[horizon], func(b *testing.B) {
			opt, err := hecate.New(hecate.Config{Lag: 10, Horizon: horizon, Model: "RFR"})
			if err != nil {
				b.Fatal(err)
			}
			if err := opt.TrainPath("wifi", wifi[:split]); err != nil {
				b.Fatal(err)
			}
			if err := opt.TrainPath("lte", lte[:split]); err != nil {
				b.Fatal(err)
			}
			histories := map[string][]float64{
				"wifi": wifi[split : split+10],
				"lte":  lte[split : split+10],
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Recommend(histories, hecate.MaxBandwidth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationModelChoice times a single end-to-end recommendation
// under three representative Hecate models: the deployed forest, the
// boosted trees, and plain linear regression.
func BenchmarkAblationModelChoice(b *testing.B) {
	tr := dataset.Generate(dataset.DefaultConfig())
	wifi, lte := tr.WiFi.Values(), tr.LTE.Values()
	split := dataset.SplitIndex(tr.Len(), 0.75)
	for _, model := range []string{"RFR", "GBR", "LR"} {
		model := model
		b.Run(model, func(b *testing.B) {
			opt, err := hecate.New(hecate.Config{Lag: 10, Horizon: 10, Model: model})
			if err != nil {
				b.Fatal(err)
			}
			if err := opt.TrainPath("wifi", wifi[:split]); err != nil {
				b.Fatal(err)
			}
			if err := opt.TrainPath("lte", lte[:split]); err != nil {
				b.Fatal(err)
			}
			histories := map[string][]float64{
				"wifi": wifi[split : split+10],
				"lte":  lte[split : split+10],
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Recommend(histories, hecate.MaxBandwidth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTrainingCost times fitting one path model for the
// deployed forest versus the linear fallback — the control-plane cost of
// the model choice.
func BenchmarkAblationTrainingCost(b *testing.B) {
	tr := dataset.Generate(dataset.DefaultConfig())
	wifi := tr.WiFi.Values()
	split := dataset.SplitIndex(tr.Len(), 0.75)
	for _, model := range []string{"RFR", "LR"} {
		model := model
		b.Run(model, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt, err := hecate.New(hecate.Config{Lag: 10, Horizon: 10, Model: model})
				if err != nil {
					b.Fatal(err)
				}
				if err := opt.TrainPath("wifi", wifi[:split]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMLPipeline times one full EvaluateOnSeries pass (scale, window,
// fit, predict, inverse, score) for the two models the paper plots.
func BenchmarkMLPipeline(b *testing.B) {
	tr := dataset.Generate(dataset.DefaultConfig())
	wifi := tr.WiFi.Values()
	cfg := ml.DefaultPipelineConfig()
	for _, name := range []string{"RFR", "LR"} {
		name := name
		b.Run(name, func(b *testing.B) {
			spec, err := ml.ModelByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ml.EvaluateOnSeries(spec.New(), wifi, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAllocators compares three flow allocators on an
// identical 5-flow workload over the lab tunnels: the trained Q-learning
// policy (the paper's future-work direction), the reactive greedy
// heuristic, and random placement. Each iteration plays one full
// evaluation episode; the achieved totals are reported as custom metrics.
func BenchmarkAblationAllocators(b *testing.B) {
	env, err := rl.NewEnv()
	if err != nil {
		b.Fatal(err)
	}
	caps := env.Capacities()
	agent, err := rl.NewAgent([]int{1, 2, 3}, rl.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := env.Train(agent, 80); err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		choose rl.Chooser
	}{
		{"qlearning", rl.PolicyChooser(agent, caps)},
		{"greedy", rl.GreedyChooser()},
		{"random", rl.RandomChooser([]int{1, 2, 3}, 99)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var total float64
			for i := 0; i < b.N; i++ {
				t, _, err := env.Evaluate(context.Background(), c.choose)
				if err != nil {
					b.Fatal(err)
				}
				total = t
			}
			b.ReportMetric(total, "total-mbps")
		})
	}
}

// BenchmarkAblationWorkloadPolicies times one 300 s soak per placement
// policy and reports the carried load as a custom metric — the
// introduction's "run networks hotter" claim quantified.
func BenchmarkAblationWorkloadPolicies(b *testing.B) {
	for _, policy := range []experiments.WorkloadPolicy{
		experiments.PolicyStatic, experiments.PolicyRandom,
		experiments.PolicyReactive, experiments.PolicyPredictive,
	} {
		policy := policy
		b.Run(string(policy), func(b *testing.B) {
			cfg := experiments.DefaultWorkloadConfig(policy)
			cfg.DurationSec = 300
			b.ReportAllocs()
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunWorkloadContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanTotalMbps
			}
			b.ReportMetric(mean, "carried-mbps")
		})
	}
}

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

// BenchmarkDataplaneModes measures per-mode forwarding cost on the lab:
// unicast and multicast are pure CRC work, while proof-of-transit adds the
// per-hop tag fold and the egress verification.
func BenchmarkDataplaneModes(b *testing.B) {
	const batch = 256
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		b.Fatal(err)
	}
	routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
	domain, err := polka.NewMultipathDomain(routers, lab.MaxPort())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := dataplane.New(lab, dataplane.Config{Domain: domain})
	if err != nil {
		b.Fatal(err)
	}
	uni, err := engine.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		b.Fatal(err)
	}
	pot, err := engine.PoTRoute(topo.TunnelPath1(), 1)
	if err != nil {
		b.Fatal(err)
	}
	mia, err := lab.Node(topo.MIA)
	if err != nil {
		b.Fatal(err)
	}
	sao, err := lab.Node(topo.SAO)
	if err != nil {
		b.Fatal(err)
	}
	ams, err := lab.Node(topo.AMS)
	if err != nil {
		b.Fatal(err)
	}
	miaOut, _ := mia.Port(topo.SAO)
	saoOut, _ := sao.Port(topo.AMS)
	amsOut, _ := ams.Port(topo.HostAMS)
	mc, err := engine.MulticastRoute(topo.MIA, map[string]uint64{
		topo.MIA: 1 << miaOut,
		topo.SAO: 1 << saoOut,
		topo.AMS: 1 << amsOut,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		route *dataplane.Route
	}{{"unicast", uni}, {"multicast", mc}, {"pot", pot}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var delivered uint64
			for i := 0; i < b.N; i++ {
				if err := engine.InjectBatch(c.route.Inject, c.route.NewPackets(batch, 1500)); err != nil {
					b.Fatal(err)
				}
				stats, err := engine.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if stats.Delivered == 0 || stats.Dropped() != 0 {
					b.Fatalf("delivered %d dropped %d", stats.Delivered, stats.Dropped())
				}
				delivered += stats.Delivered
				engine.Reset()
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(delivered)/s, "pkts/s")
			}
		})
	}
}

// BenchmarkLinkFullPath measures the full link tier's per-frame cost: the
// Send path (loss draw, queue pruning, serialization arithmetic, heap
// push) plus the arrival pop, on a modeled wire with every feature turned
// on. The pkts/s metric is frames through the link per second; the steady
// state must stay allocation-free so the dataplane's full mode doesn't
// pay per-hop garbage.
func BenchmarkLinkFullPath(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  link.FullConfig
	}{
		{"transparent", link.FullConfig{RateMbps: -1, DelayMs: -1}},
		{"modeled", link.FullConfig{RateMbps: 1000, DelayMs: 5, QueuePkts: 256,
			Loss: link.Bernoulli(0.01), ReorderProb: 0.05, ReorderWindowMs: 1, Seed: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := link.NewFullPath(c.cfg)
			var buf []link.Frame
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := link.Time(i) * 12_000 // 1500 B at 1 Gbps
				p.Send(now, link.Frame{Seq: uint64(i), Size: 1500})
				buf = p.Recv(now, buf[:0])
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "pkts/s")
			}
		})
	}
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

// BenchmarkLinkTransfer times the window-based transport moving 1 MiB
// over a modeled wire — the unit of work behind every throttlesweep cell.
func BenchmarkLinkTransfer(b *testing.B) {
	b.ReportAllocs()
	var segs uint64
	for i := 0; i < b.N; i++ {
		data := link.NewFullPath(link.FullConfig{RateMbps: 16, DelayMs: 10, QueuePkts: 64,
			Loss: link.Bernoulli(0.01), Seed: 1})
		ack := link.NewFullPath(link.FullConfig{RateMbps: 16, DelayMs: 10, Seed: 2})
		res, err := link.RunTransfer(context.Background(), data, ack, link.TransferConfig{Bytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if res.Aborted {
			b.Fatalf("aborted: %s", res.AbortReason)
		}
		segs += res.Segments
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(segs)/s, "segs/s")
	}
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
