package rl

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/netem"
	"repro/internal/topo"
)

// Env is the training/evaluation environment: the emulated Global P4 Lab
// with the three experiment tunnels, presented as an episodic
// flow-placement task. Each episode admits a random sequence of flows;
// the agent picks a tunnel per flow and is rewarded with the throughput
// the flow achieves after the network settles.
type Env struct {
	// FlowsPerEpisode is how many flows arrive per episode.
	FlowsPerEpisode int
	// SettleSec is the simulated time between arrivals (lets TCP ramp).
	SettleSec float64
	// DemandChoices are the offered loads flows draw from (0 = greedy).
	DemandChoices []float64
	// Seed drives the workload.
	Seed int64

	tunnels map[int]topo.Path
	caps    map[int]float64
}

// NewEnv creates the standard environment over the lab tunnels.
func NewEnv() (*Env, error) {
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		return nil, err
	}
	tunnels := map[int]topo.Path{1: topo.TunnelPath1(), 2: topo.TunnelPath2(), 3: topo.TunnelPath3()}
	caps := make(map[int]float64, len(tunnels))
	for id, p := range tunnels {
		b, err := lab.PathBottleneckMbps(p)
		if err != nil {
			return nil, err
		}
		caps[id] = b
	}
	return &Env{
		FlowsPerEpisode: 5,
		SettleSec:       8,
		DemandChoices:   []float64{0, 4, 8, 15},
		Seed:            7,
		tunnels:         tunnels,
		caps:            caps,
	}, nil
}

// Capacities returns each tunnel's bottleneck capacity.
func (e *Env) Capacities() map[int]float64 {
	out := make(map[int]float64, len(e.caps))
	for k, v := range e.caps {
		out[k] = v
	}
	return out
}

// newEmulator builds a fresh lab emulator for one episode.
func (e *Env) newEmulator() (*netem.Emulator, error) {
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		return nil, err
	}
	return netem.New(lab, netem.Config{TickSeconds: 0.2, RampMbpsPerSec: 40}), nil
}

// availability reads each tunnel's residual bandwidth.
func (e *Env) availability(emu *netem.Emulator) (map[int]float64, error) {
	out := make(map[int]float64, len(e.tunnels))
	for id, p := range e.tunnels {
		a, err := emu.PathAvailableMbps(p)
		if err != nil {
			return nil, err
		}
		out[id] = a
	}
	return out, nil
}

// Chooser is a placement policy: given per-tunnel availability, pick a
// tunnel for the arriving flow. The trained agent, the greedy heuristic
// and the random baseline all fit this shape.
type Chooser func(availMbps map[int]float64) (int, error)

// Train runs episodic Q-learning with a linearly decaying exploration
// rate. The reward for a placement is the flow's *marginal* contribution
// to total network throughput (total after settling minus total before),
// so joining an already-saturated tunnel earns ≈ 0 even though the flow
// itself still gets a share — the shaping that makes the agent learn to
// spread load, mirroring DeepRoute's congestion-aware reward.
func (e *Env) Train(agent *Agent, episodes int) error {
	return e.TrainContext(context.Background(), agent, episodes)
}

// TrainContext is Train under a context, checked between episodes so long
// training runs abort promptly on cancellation. The agent keeps whatever
// it learned before the abort.
func (e *Env) TrainContext(ctx context.Context, agent *Agent, episodes int) error {
	if episodes < 1 {
		return fmt.Errorf("rl: need ≥ 1 episode")
	}
	rng := rand.New(rand.NewSource(e.Seed))
	eps0 := agent.Epsilon()
	defer agent.SetEpsilon(eps0)
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Decay exploration from eps0 toward 0.02 across training.
		frac := float64(ep) / float64(episodes)
		agent.SetEpsilon(eps0*(1-frac) + 0.02*frac)
		emu, err := e.newEmulator()
		if err != nil {
			return err
		}
		avail, err := e.availability(emu)
		if err != nil {
			return err
		}
		state, err := agent.Observe(avail, e.caps)
		if err != nil {
			return err
		}
		for fi := 0; fi < e.FlowsPerEpisode; fi++ {
			tunnel := agent.ChooseTunnel(state, true)
			demand := e.DemandChoices[rng.Intn(len(e.DemandChoices))]
			path := e.tunnels[tunnel]
			before := emu.TotalActiveMbps()
			_, err := emu.AddFlow(netem.FlowSpec{
				Name: fmt.Sprintf("ep%d-f%d", ep, fi),
				Src:  path.Nodes[0], Dst: path.Nodes[len(path.Nodes)-1],
				ToS: uint8(4 * (fi + 1)), Proto: 6,
				DemandMbps: demand, Path: path,
			})
			if err != nil {
				return err
			}
			if err := emu.RunForContext(ctx, e.SettleSec); err != nil {
				return err
			}
			reward := emu.TotalActiveMbps() - before
			avail, err = e.availability(emu)
			if err != nil {
				return err
			}
			next, err := agent.Observe(avail, e.caps)
			if err != nil {
				return err
			}
			if err := agent.Update(state, tunnel, reward, next); err != nil {
				return err
			}
			state = next
		}
	}
	return nil
}

// Evaluate plays one deterministic episode under the policy and returns
// the total throughput achieved after all flows are placed, plus the
// per-flow rates in arrival order. Demands cycle deterministically so
// policies are compared on identical workloads. ctx is checked every
// emulator tick.
func (e *Env) Evaluate(ctx context.Context, choose Chooser) (total float64, perFlow []float64, err error) {
	emu, err := e.newEmulator()
	if err != nil {
		return 0, nil, err
	}
	var ids []netem.FlowID
	for fi := 0; fi < e.FlowsPerEpisode; fi++ {
		avail, err := e.availability(emu)
		if err != nil {
			return 0, nil, err
		}
		tunnel, err := choose(avail)
		if err != nil {
			return 0, nil, err
		}
		path, ok := e.tunnels[tunnel]
		if !ok {
			return 0, nil, fmt.Errorf("rl: policy chose unknown tunnel %d", tunnel)
		}
		demand := e.DemandChoices[fi%len(e.DemandChoices)]
		id, err := emu.AddFlow(netem.FlowSpec{
			Name: fmt.Sprintf("eval-f%d", fi),
			Src:  path.Nodes[0], Dst: path.Nodes[len(path.Nodes)-1],
			ToS: uint8(4 * (fi + 1)), Proto: 6,
			DemandMbps: demand, Path: path,
		})
		if err != nil {
			return 0, nil, err
		}
		ids = append(ids, id)
		if err := emu.RunForContext(ctx, e.SettleSec); err != nil {
			return 0, nil, err
		}
	}
	if err := emu.RunForContext(ctx, 10); err != nil {
		return 0, nil, err
	}
	for _, id := range ids {
		fl, err := emu.Flow(id)
		if err != nil {
			return 0, nil, err
		}
		perFlow = append(perFlow, fl.RateMbps)
		total += fl.RateMbps
	}
	return total, perFlow, nil
}

// GreedyChooser places each flow on the tunnel with the most available
// bandwidth — the reactive baseline.
func GreedyChooser() Chooser {
	return func(avail map[int]float64) (int, error) {
		if len(avail) == 0 {
			return 0, fmt.Errorf("rl: no tunnels")
		}
		best, bestV := 0, -1.0
		// Deterministic tie-break: lowest ID wins.
		for id := range avail {
			if avail[id] > bestV || (avail[id] == bestV && id < best) {
				best, bestV = id, avail[id]
			}
		}
		return best, nil
	}
}

// RandomChooser places flows uniformly at random — the floor baseline.
func RandomChooser(tunnelIDs []int, seed int64) Chooser {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int, len(tunnelIDs))
	copy(ids, tunnelIDs)
	return func(map[int]float64) (int, error) {
		if len(ids) == 0 {
			return 0, fmt.Errorf("rl: no tunnels")
		}
		return ids[rng.Intn(len(ids))], nil
	}
}

// PolicyChooser wraps a trained agent as a greedy (non-exploring) policy.
func PolicyChooser(agent *Agent, caps map[int]float64) Chooser {
	return func(avail map[int]float64) (int, error) {
		s, err := agent.Observe(avail, caps)
		if err != nil {
			return 0, err
		}
		return agent.ChooseTunnel(s, false), nil
	}
}
