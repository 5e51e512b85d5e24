package experiments

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/scenario"
)

// This file ports every experiment behind the unified scenario registry
// (internal/scenario). Each registration is the experiment's single
// authoritative entry: labctl, the suite runner, and CI discover the
// scenario here, its DefaultConfig is the one source other defaults
// derive from, and its Run is the context-aware lifecycle.

// labScenario adapts one typed experiment to scenario.Scenario. C is the
// scenario's config struct (JSON round-trippable by construction: plain
// exported fields only).
type labScenario[C any] struct {
	name     string
	describe string
	defaults func() C
	quick    func() C // nil: quick runs use the defaults
	run      func(ctx context.Context, env *scenario.Env, cfg C) (*scenario.Report, error)
}

func (s *labScenario[C]) Name() string       { return s.name }
func (s *labScenario[C]) Describe() string   { return s.describe }
func (s *labScenario[C]) DefaultConfig() any { return s.defaults() }

func (s *labScenario[C]) QuickConfig() any {
	if s.quick == nil {
		return s.defaults()
	}
	return s.quick()
}

func (s *labScenario[C]) Run(ctx context.Context, env *scenario.Env, cfg any) (*scenario.Report, error) {
	c, ok := cfg.(C)
	if !ok {
		return nil, fmt.Errorf("experiments: scenario %s: config is %T, want %T", s.name, cfg, *new(C))
	}
	return s.run(ctx, env, c)
}

// ObservedVsPredictedConfig parametrizes the mlpredict scenario: one
// named regressor's Fig. 7/8 test-split walk.
type ObservedVsPredictedConfig struct {
	// Model names the regressor ("RFR" for Fig. 7, "GPR" for Fig. 8).
	Model string
	// ML is the shared dataset/pipeline configuration.
	ML MLConfig
	// Importance also computes per-lag permutation importance on both
	// paths (the retired `mlcompare -importance` analysis).
	Importance bool
}

// WorkloadSuiteConfig parametrizes the workload scenario: the soak played
// once per policy on the identical arrival sequence.
type WorkloadSuiteConfig struct {
	// Policies lists the placement policies to compare.
	Policies []WorkloadPolicy
	// Base is the per-run configuration; Base.Policy is overridden by
	// each entry of Policies.
	Base WorkloadConfig
}

// FCTSuiteConfig parametrizes the fct scenario: the completion-time
// experiment played once per policy on the identical transfer sequence.
type FCTSuiteConfig struct {
	// Policies lists the placement policies to compare.
	Policies []WorkloadPolicy
	// Base is the per-run configuration; Base.Policy is overridden by
	// each entry of Policies.
	Base FCTConfig
}

func init() {
	scenario.Register(&labScenario[MLConfig]{
		name:     "mlcompare",
		describe: "Fig. 6: RMSE of all 18 regressors on both paths of the UQ-like trace, with the joint-RMSE ranking",
		defaults: DefaultMLConfig,
		run: func(ctx context.Context, env *scenario.Env, cfg MLConfig) (*scenario.Report, error) {
			res, err := RunMLComparisonContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			rep := &scenario.Report{Payload: res}
			rep.Metric("models", float64(len(res.Rows)))
			if len(res.Ranked) > 0 {
				best := res.Ranked[0]
				env.Logf("best joint model: %s (wifi %.2f, lte %.2f)", best.Name, best.RMSEPath1, best.RMSEPath2)
				rep.Metric("best_wifi_rmse", best.RMSEPath1)
				rep.Metric("best_lte_rmse", best.RMSEPath2)
			}
			return rep, nil
		},
	})

	scenario.Register(&labScenario[ObservedVsPredictedConfig]{
		name:     "mlpredict",
		describe: "Fig. 7/8: one regressor's observed-vs-predicted bandwidth walk on the test split of both paths",
		defaults: func() ObservedVsPredictedConfig {
			return ObservedVsPredictedConfig{Model: "RFR", ML: DefaultMLConfig()}
		},
		quick: func() ObservedVsPredictedConfig {
			// The linear model fits in milliseconds and still exercises the
			// whole pipeline.
			return ObservedVsPredictedConfig{Model: "LR", ML: DefaultMLConfig()}
		},
		run: func(ctx context.Context, env *scenario.Env, cfg ObservedVsPredictedConfig) (*scenario.Report, error) {
			res, err := RunObservedVsPredictedContext(ctx, cfg.Model, cfg.ML)
			if err != nil {
				return nil, err
			}
			if cfg.Importance {
				tr := dataset.Generate(cfg.ML.Dataset)
				for _, path := range []struct {
					series []float64
					dst    *[]float64
				}{{tr.WiFi.Values(), &res.WiFiImportance}, {tr.LTE.Values(), &res.LTEImportance}} {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					imp, err := lagImportance(cfg.Model, path.series, cfg.ML.Pipeline)
					if err != nil {
						return nil, fmt.Errorf("permutation importance: %w", err)
					}
					*path.dst = imp
				}
			}
			rep := &scenario.Report{Payload: res}
			rep.Metric("wifi_rmse", res.WiFi.RMSE)
			rep.Metric("wifi_r2", res.WiFi.R2)
			rep.Metric("lte_rmse", res.LTE.RMSE)
			rep.Metric("lte_r2", res.LTE.R2)
			return rep, nil
		},
	})

	scenario.Register(&labScenario[TestbedConfig]{
		name:     "latencymigration",
		describe: "Fig. 11: a probed flow migrates from the 20 ms MIA-SAO-AMS tunnel to MIA-CHI-AMS after one min-latency consultation",
		defaults: DefaultTestbedConfig,
		quick:    QuickTestbedConfig,
		run: func(ctx context.Context, env *scenario.Env, cfg TestbedConfig) (*scenario.Report, error) {
			res, err := RunLatencyMigrationContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			env.Logf("migrated tunnel %d -> %d at t=%.0f s", res.FromTunnel, res.ToTunnel, res.MigrationTime)
			rep := &scenario.Report{Payload: res}
			rep.Metric("pre_mean_rtt_ms", res.PreMeanRTT)
			rep.Metric("post_mean_rtt_ms", res.PostMeanRTT)
			rep.Metric("migration_time_s", res.MigrationTime)
			rep.Metric("to_tunnel", float64(res.ToTunnel))
			rep.Metric("samples", float64(len(res.Samples)))
			if n := len(res.Samples); n > 0 {
				rep.EmulatedSeconds = res.Samples[n-1].Time
			}
			return rep, nil
		},
	})

	scenario.Register(&labScenario[TestbedConfig]{
		name:     "flowaggregation",
		describe: "Fig. 12: three ToS-tagged flows sharing one 20 Mbps tunnel are spread over tunnels 1-3, raising aggregate throughput",
		defaults: DefaultTestbedConfig,
		quick:    QuickTestbedConfig,
		run: func(ctx context.Context, env *scenario.Env, cfg TestbedConfig) (*scenario.Report, error) {
			res, err := RunFlowAggregationContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			env.Logf("aggregate %.1f -> %.1f Mbps after reallocation", res.Phase1MeanTotal, res.Phase2MeanTotal)
			rep := &scenario.Report{Payload: res}
			rep.Metric("phase1_mean_total_mbps", res.Phase1MeanTotal)
			rep.Metric("phase2_mean_total_mbps", res.Phase2MeanTotal)
			rep.Metric("reallocation_time_s", res.ReallocationTime)
			rep.Metric("samples", float64(len(res.Samples)))
			if n := len(res.Samples); n > 0 {
				rep.EmulatedSeconds = res.Samples[n-1].Time
			}
			return rep, nil
		},
	})

	scenario.Register(&labScenario[TestbedConfig]{
		name:     "failover",
		describe: "failure recovery: the MIA-SAO link dies and the optimizer reroutes the victim flow at the edge with one PBR retarget",
		defaults: DefaultTestbedConfig,
		quick:    QuickTestbedConfig,
		run: func(ctx context.Context, env *scenario.Env, cfg TestbedConfig) (*scenario.Report, error) {
			res, err := RunFailureRecoveryContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			env.Logf("outage %.0f s, recovered onto tunnel %d", res.OutageSec, res.RecoveredTunnel)
			rep := &scenario.Report{Payload: res}
			rep.Metric("outage_s", res.OutageSec)
			rep.Metric("steady_before_mbps", res.SteadyBefore)
			rep.Metric("steady_after_mbps", res.SteadyAfter)
			rep.Metric("recovered_tunnel", float64(res.RecoveredTunnel))
			if n := len(res.Samples); n > 0 {
				rep.EmulatedSeconds = res.Samples[n-1].Time
			}
			return rep, nil
		},
	})

	scenario.Register(&labScenario[WorkloadSuiteConfig]{
		name:     "workload",
		describe: "overloaded churning soak: carried load under static / random / reactive / predictive placement on identical arrivals",
		defaults: func() WorkloadSuiteConfig {
			return WorkloadSuiteConfig{
				Policies: []WorkloadPolicy{PolicyStatic, PolicyRandom, PolicyReactive, PolicyPredictive},
				Base:     DefaultWorkloadConfig(""),
			}
		},
		quick: func() WorkloadSuiteConfig {
			cfg := WorkloadSuiteConfig{
				Policies: []WorkloadPolicy{PolicyStatic, PolicyReactive},
				Base:     DefaultWorkloadConfig(""),
			}
			cfg.Base.DurationSec = 120
			return cfg
		},
		run: func(ctx context.Context, env *scenario.Env, cfg WorkloadSuiteConfig) (*scenario.Report, error) {
			rep := &scenario.Report{}
			results := make(map[WorkloadPolicy]*WorkloadResult, len(cfg.Policies))
			for _, policy := range cfg.Policies {
				env.Phasef("policy:"+string(policy), "soaking %.0f s", cfg.Base.DurationSec)
				run := cfg.Base
				run.Policy = policy
				res, err := RunWorkloadContext(ctx, run)
				if err != nil {
					return nil, fmt.Errorf("policy %s: %w", policy, err)
				}
				env.Logf("%-10s mean %5.1f Mbps  peak %5.1f Mbps (%d flows)", policy, res.MeanTotalMbps, res.PeakTotalMbps, res.FlowsAdmitted)
				results[policy] = res
				rep.Metric(string(policy)+"_mean_mbps", res.MeanTotalMbps)
				rep.Metric(string(policy)+"_peak_mbps", res.PeakTotalMbps)
				rep.Metric(string(policy)+"_flows", float64(res.FlowsAdmitted))
				rep.EmulatedSeconds += run.DurationSec
			}
			rep.Payload = results
			return rep, nil
		},
	})

	scenario.Register(&labScenario[FCTSuiteConfig]{
		name:     "fct",
		describe: "flow completion time: finite mice-and-elephant transfers placed by each policy; mean/p95 FCT and makespan compared",
		defaults: func() FCTSuiteConfig {
			return FCTSuiteConfig{
				Policies: []WorkloadPolicy{PolicyStatic, PolicyRandom, PolicyReactive},
				Base:     DefaultFCTConfig(""),
			}
		},
		quick: func() FCTSuiteConfig {
			cfg := FCTSuiteConfig{
				Policies: []WorkloadPolicy{PolicyStatic, PolicyReactive},
				Base:     DefaultFCTConfig(""),
			}
			cfg.Base.Transfers = 8
			return cfg
		},
		run: func(ctx context.Context, env *scenario.Env, cfg FCTSuiteConfig) (*scenario.Report, error) {
			rep := &scenario.Report{}
			results := make(map[WorkloadPolicy]*FCTResult, len(cfg.Policies))
			for _, policy := range cfg.Policies {
				env.Phasef("policy:"+string(policy), "%d transfers", cfg.Base.Transfers)
				run := cfg.Base
				run.Policy = policy
				res, err := RunFCTContext(ctx, run)
				if err != nil {
					return nil, fmt.Errorf("policy %s: %w", policy, err)
				}
				env.Logf("%-10s mean FCT %6.1f s  p95 %6.1f s  makespan %6.1f s (%d/%d done)",
					policy, res.MeanFCTSec, res.P95FCTSec, res.MakespanSec, res.Completed, run.Transfers)
				results[policy] = res
				rep.Metric(string(policy)+"_mean_fct_s", res.MeanFCTSec)
				rep.Metric(string(policy)+"_p95_fct_s", res.P95FCTSec)
				rep.Metric(string(policy)+"_makespan_s", res.MakespanSec)
				rep.Metric(string(policy)+"_completed", float64(res.Completed))
				rep.EmulatedSeconds += res.MakespanSec
			}
			rep.Payload = results
			return rep, nil
		},
	})

	scenario.Register(&labScenario[PacketLevelConfig]{
		name:     "packetlevel",
		describe: "packet-level PolKA forwarding: three unicast tunnels, an M-PolKA multicast tree, and a PoT-protected route, all VerifyPath-certified",
		defaults: func() PacketLevelConfig { return PacketLevelConfig{}.withDefaults() },
		quick: func() PacketLevelConfig {
			// 200 packets/route keeps one round sub-millisecond, so the
			// quick config buys its rate stability with extra rounds: the
			// timed region stays ~100 ms and pkts_ratio gates at the
			// trajectory threshold without CI-runner jitter tripping it.
			cfg := PacketLevelConfig{PacketsPerRoute: 200, MeasureRounds: 512}
			return cfg.withDefaults()
		},
		run: func(ctx context.Context, env *scenario.Env, cfg PacketLevelConfig) (*scenario.Report, error) {
			res, err := RunPacketLevelContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			env.Logf("%d forwarding decisions at %.0f/sec", res.Stats.Hops, res.PktsPerSec)
			rep := &scenario.Report{Payload: res}
			rep.Metric("pkts_per_sec", res.PktsPerSec)
			rep.Metric("hops", float64(res.Stats.Hops))
			rep.Metric("delivered", float64(res.Stats.Delivered))
			rep.Metric("pot_verified", float64(res.Stats.PoTVerified))
			rep.Metric("drops", float64(res.Stats.TTLDrops+res.Stats.BadPortDrops+res.Stats.PoTDrops))
			// Only full links have a clock; fast runs stay metric-compatible
			// with the committed trajectory points.
			if cfg.FullLinks {
				rep.Metric("virtual_ms", res.VirtualMs)
				rep.Metric("wire_drops", float64(res.Stats.QueueDrops+res.Stats.LossDrops))
			}
			return rep, nil
		},
	})

	scenario.Register(&labScenario[MultipathConfig]{
		name:     "multipath",
		describe: "M-PolKA aggregation: one routeID encodes the MIA->{CHI,CAL} tree and a multipath flow sums both branch bottlenecks",
		defaults: DefaultMultipathConfig,
		run: func(ctx context.Context, env *scenario.Env, cfg MultipathConfig) (*scenario.Report, error) {
			res, err := RunMultipathAggregationContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			env.Logf("aggregate %.1f Mbps over %d branches", res.AggregateMbps, len(res.BranchMbps))
			rep := &scenario.Report{Payload: res, EmulatedSeconds: cfg.SettleSec}
			rep.Metric("aggregate_mbps", res.AggregateMbps)
			rep.Metric("branches", float64(len(res.BranchMbps)))
			rep.Metric("routeid_bits", float64(len(res.RouteIDBits)))
			return rep, nil
		},
	})
}
