package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/netem"
	"repro/internal/topo"
)

// The flow-completion-time (FCT) experiment follows DeepRoute's objective
// ("learn optimal routing strategies to minimize flow completion time"):
// finite transfers arrive over time, a placement policy assigns each to a
// tunnel, and the score is how fast the transfers finish. Bad placement
// queues transfers behind each other on one bottleneck; good placement
// finishes the herd sooner.

// FCTConfig parametrizes the completion-time experiment.
type FCTConfig struct {
	// Policy selects the placement strategy (same set as the soak).
	Policy WorkloadPolicy
	// Seed drives the workload.
	Seed int64
	// Transfers is how many finite flows arrive.
	Transfers int
	// MeanInterarrivalSec spaces the arrivals.
	MeanInterarrivalSec float64
	// SizesMB are the transfer sizes drawn round-robin (elephants and
	// mice, as DeepRoute frames it).
	SizesMB []float64
}

// DefaultFCTConfig mixes mice and elephants at a rate that congests a
// single tunnel but not the full network.
func DefaultFCTConfig(policy WorkloadPolicy) FCTConfig {
	return FCTConfig{
		Policy:              policy,
		Seed:                21,
		Transfers:           24,
		MeanInterarrivalSec: 5,
		SizesMB:             []float64{2, 20, 5, 60},
	}
}

// FCTResult summarizes completion times.
type FCTResult struct {
	Policy WorkloadPolicy
	// MeanFCTSec and P95FCTSec summarize the per-transfer completion
	// times (arrival → completion).
	MeanFCTSec, P95FCTSec float64
	// MakespanSec is when the last transfer finished.
	MakespanSec float64
	// Completed counts transfers that finished within the horizon.
	Completed int
}

// RunFCTContext plays the completion-time experiment under one policy;
// ctx is checked across arrivals and the drain loop.
func RunFCTContext(ctx context.Context, cfg FCTConfig) (*FCTResult, error) {
	if cfg.Transfers < 1 || len(cfg.SizesMB) == 0 || cfg.MeanInterarrivalSec <= 0 {
		return nil, fmt.Errorf("experiments: invalid FCT config %+v", cfg)
	}
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		return nil, err
	}
	emu := netem.New(lab, netem.Config{TickSeconds: 0.25, RampMbpsPerSec: 40})
	tunnels := map[int]topo.Path{1: topo.TunnelPath1(), 2: topo.TunnelPath2(), 3: topo.TunnelPath3()}
	tunnelIDs := []int{1, 2, 3}
	rng := rand.New(rand.NewSource(cfg.Seed))
	policyRng := rand.New(rand.NewSource(cfg.Seed + 1))

	choose := func() (int, error) {
		switch cfg.Policy {
		case PolicyStatic:
			return 1, nil
		case PolicyRandom:
			return tunnelIDs[policyRng.Intn(len(tunnelIDs))], nil
		case PolicyReactive, PolicyPredictive:
			// Both TE policies reduce to availability here: transfers are
			// short relative to telemetry history, so the reactive signal
			// is what matters (the soak covers the predictive pipeline).
			return reactiveTunnel(emu, tunnels, tunnelIDs)
		default:
			return 0, fmt.Errorf("experiments: unknown policy %q", cfg.Policy)
		}
	}

	type transfer struct {
		id      netem.FlowID
		arrival float64
	}
	var transfers []transfer
	next := 0.0
	for i := 0; i < cfg.Transfers; i++ {
		if err := emu.RunUntilContext(ctx, next); err != nil {
			return nil, err
		}
		tunnel, err := choose()
		if err != nil {
			return nil, err
		}
		path := tunnels[tunnel]
		id, err := emu.AddFlow(netem.FlowSpec{
			Name: fmt.Sprintf("xfer-%d", i),
			Src:  path.Nodes[0], Dst: path.Nodes[len(path.Nodes)-1],
			ToS: uint8(4 * (1 + i%3)), Proto: 6,
			Path:   path,
			SizeMB: cfg.SizesMB[i%len(cfg.SizesMB)],
		})
		if err != nil {
			return nil, err
		}
		transfers = append(transfers, transfer{id: id, arrival: emu.Now()})
		next = emu.Now() + rng.ExpFloat64()*cfg.MeanInterarrivalSec
	}
	// Drain: run until everything completes (bounded horizon).
	horizon := emu.Now() + 2000
	for emu.Now() < horizon {
		if err := emu.RunForContext(ctx, 1); err != nil {
			return nil, err
		}
		done := true
		for _, tr := range transfers {
			fl, err := emu.Flow(tr.id)
			if err != nil {
				return nil, err
			}
			if fl.Active {
				done = false
				break
			}
		}
		if done {
			break
		}
	}

	res := &FCTResult{Policy: cfg.Policy}
	var fcts []float64
	for _, tr := range transfers {
		fl, err := emu.Flow(tr.id)
		if err != nil {
			return nil, err
		}
		if fl.CompletedAt < 0 {
			continue // did not finish within the horizon
		}
		fct := fl.CompletedAt - tr.arrival
		fcts = append(fcts, fct)
		if fl.CompletedAt > res.MakespanSec {
			res.MakespanSec = fl.CompletedAt
		}
	}
	res.Completed = len(fcts)
	if len(fcts) > 0 {
		sum := 0.0
		for _, v := range fcts {
			sum += v
		}
		res.MeanFCTSec = sum / float64(len(fcts))
		sort.Float64s(fcts)
		res.P95FCTSec = fcts[(len(fcts)*95)/100]
	}
	return res, nil
}
