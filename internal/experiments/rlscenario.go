package experiments

import (
	"context"
	"fmt"

	"repro/internal/rl"
	"repro/internal/scenario"
)

// The rl scenario wraps the DeepRoute-style tabular Q-learning allocator
// (the paper's reinforcement-learning future-work direction): train on
// the emulated Global P4 Lab, then compare the learned policy against the
// reactive greedy heuristic and random placement on one deterministic
// workload.

// RLConfig parametrizes the rl scenario.
type RLConfig struct {
	// Episodes is the training length.
	Episodes int
	// RandomSeed drives the random-placement baseline.
	RandomSeed int64
}

// DefaultRLConfig mirrors cmd/rldemo's historical defaults.
func DefaultRLConfig() RLConfig {
	return RLConfig{Episodes: 80, RandomSeed: 99}
}

// RLPolicyResult is one policy's evaluation in the rl scenario.
type RLPolicyResult struct {
	// Policy names the chooser.
	Policy string
	// TotalMbps is the aggregate throughput after all flows are placed.
	TotalMbps float64
	// PerFlowMbps lists the per-flow rates in arrival order.
	PerFlowMbps []float64
}

// RLResult is the rl scenario's artifact.
type RLResult struct {
	// Episodes echoes the training length.
	Episodes int
	// States is the learned Q-table's state count.
	States int
	// Policies holds the evaluations, trained agent first.
	Policies []RLPolicyResult
}

// RunRLComparisonContext trains the Q-learning agent and evaluates it
// against the greedy and random baselines; ctx is checked between training
// episodes.
func RunRLComparisonContext(ctx context.Context, cfg RLConfig) (*RLResult, error) {
	if cfg.Episodes < 1 {
		cfg.Episodes = 80
	}
	env, err := rl.NewEnv()
	if err != nil {
		return nil, err
	}
	caps := env.Capacities()
	tunnelIDs := []int{1, 2, 3}
	agent, err := rl.NewAgent(tunnelIDs, rl.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := env.TrainContext(ctx, agent, cfg.Episodes); err != nil {
		return nil, fmt.Errorf("experiments: rl training: %w", err)
	}
	res := &RLResult{Episodes: cfg.Episodes, States: agent.States()}
	for _, p := range []struct {
		name   string
		choose rl.Chooser
	}{
		{"q-learning", rl.PolicyChooser(agent, caps)},
		{"greedy", rl.GreedyChooser()},
		{"random", rl.RandomChooser(tunnelIDs, cfg.RandomSeed)},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total, perFlow, err := env.Evaluate(ctx, p.choose)
		if err != nil {
			return nil, fmt.Errorf("experiments: rl evaluating %s: %w", p.name, err)
		}
		res.Policies = append(res.Policies, RLPolicyResult{Policy: p.name, TotalMbps: total, PerFlowMbps: perFlow})
	}
	return res, nil
}

func init() {
	scenario.Register(&labScenario[RLConfig]{
		name:     "rl",
		describe: "DeepRoute-style Q-learning allocator trained on the lab, compared against greedy and random placement",
		defaults: DefaultRLConfig,
		quick: func() RLConfig {
			cfg := DefaultRLConfig()
			cfg.Episodes = 20
			return cfg
		},
		run: func(ctx context.Context, env *scenario.Env, cfg RLConfig) (*scenario.Report, error) {
			res, err := RunRLComparisonContext(ctx, cfg)
			if err != nil {
				return nil, err
			}
			rep := &scenario.Report{Payload: res}
			rep.Metric("episodes", float64(res.Episodes))
			rep.Metric("states", float64(res.States))
			for _, p := range res.Policies {
				env.Logf("%-12s total %5.1f Mbps", p.Policy, p.TotalMbps)
				rep.Metric(p.Policy+"_total_mbps", p.TotalMbps)
			}
			return rep, nil
		},
	})
}
