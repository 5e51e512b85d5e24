package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/hecate"
	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/topo"
)

// The workload soak exercises the motivation of the paper's introduction:
// providers cap utilization to avoid hotspots, and good TE decisions let
// the same network "run hotter". A churning open-loop workload (Poisson
// arrivals, exponential holding times, fixed-rate demands exceeding the
// network's capacity in aggregate) is placed onto the three lab tunnels
// by one of four policies; the carried load over time is the score.

// tunnelName and tunnelIDFromName mirror the control plane's naming
// convention locally (the soak bypasses the bus for speed).
func tunnelName(id int) string { return fmt.Sprintf("tunnel%d", id) }

func tunnelIDFromName(name string) (int, error) {
	var id int
	if _, err := fmt.Sscanf(name, "tunnel%d", &id); err != nil {
		return 0, fmt.Errorf("experiments: bad tunnel name %q: %w", name, err)
	}
	return id, nil
}

// reactiveTunnel is the reactive placement both soaks share: the tunnel
// among tunnelIDs with the most bandwidth available right now.
func reactiveTunnel(emu *netem.Emulator, tunnels map[int]topo.Path, tunnelIDs []int) (int, error) {
	current := make(map[string]float64, len(tunnelIDs))
	for _, id := range tunnelIDs {
		a, err := emu.PathAvailableMbps(tunnels[id])
		if err != nil {
			return 0, err
		}
		current[tunnelName(id)] = a
	}
	best, _, err := hecate.ReactiveBest(current, hecate.MaxBandwidth)
	if err != nil {
		return 0, err
	}
	return tunnelIDFromName(best)
}

// WorkloadPolicy names a placement policy for the soak experiment.
type WorkloadPolicy string

// Available policies.
const (
	// PolicyPredictive uses the Hecate optimizer (10-step forecasts on
	// telemetry history, retrained periodically).
	PolicyPredictive WorkloadPolicy = "predictive"
	// PolicyReactive places on the tunnel with the highest current
	// available bandwidth (Section III's no-ML baseline).
	PolicyReactive WorkloadPolicy = "reactive"
	// PolicyRandom places uniformly at random.
	PolicyRandom WorkloadPolicy = "random"
	// PolicyStatic pins everything to tunnel 1 (no TE at all).
	PolicyStatic WorkloadPolicy = "static"
)

// WorkloadConfig parametrizes the soak.
type WorkloadConfig struct {
	// Policy selects the placement strategy.
	Policy WorkloadPolicy
	// Model is the Hecate regressor for the predictive policy.
	Model string
	// Seed drives the workload (same seed ⇒ identical arrivals across
	// policies).
	Seed int64
	// DurationSec is the soak length on the emulated clock.
	DurationSec float64
	// MeanInterarrivalSec and MeanHoldSec shape the Poisson workload.
	MeanInterarrivalSec, MeanHoldSec float64
	// Demands are the per-flow offered rates drawn round-robin.
	Demands []float64
	// RetrainEverySec is the predictive policy's model refresh period.
	RetrainEverySec float64
}

// DefaultWorkloadConfig produces an overloaded regime: offered load ≈ 52
// Mbps against 35 Mbps of tunnel capacity, so placement quality shows.
func DefaultWorkloadConfig(policy WorkloadPolicy) WorkloadConfig {
	return WorkloadConfig{
		Policy:              policy,
		Model:               "LR",
		Seed:                11,
		DurationSec:         600,
		MeanInterarrivalSec: 8,
		MeanHoldSec:         60,
		Demands:             []float64{3, 5, 8, 12},
		RetrainEverySec:     60,
	}
}

// WorkloadResult summarizes one soak run.
type WorkloadResult struct {
	// Policy echoes the configuration.
	Policy WorkloadPolicy
	// FlowsAdmitted counts arrivals over the run.
	FlowsAdmitted int
	// MeanTotalMbps and PeakTotalMbps summarize carried load.
	MeanTotalMbps, PeakTotalMbps float64
	// Series is the carried-load time series (1 Hz).
	Series *timeseries.Series
}

// RunWorkloadContext plays the soak under one policy; ctx is checked every
// emulated second.
func RunWorkloadContext(ctx context.Context, cfg WorkloadConfig) (*WorkloadResult, error) {
	if cfg.DurationSec <= 0 {
		cfg.DurationSec = 600
	}
	if cfg.MeanInterarrivalSec <= 0 || cfg.MeanHoldSec <= 0 {
		return nil, fmt.Errorf("experiments: workload needs positive interarrival and hold times")
	}
	if len(cfg.Demands) == 0 {
		return nil, fmt.Errorf("experiments: workload needs demands")
	}
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		return nil, err
	}
	emu := netem.New(lab, netem.Config{TickSeconds: 0.25, RampMbpsPerSec: 40})
	tunnels := map[int]topo.Path{1: topo.TunnelPath1(), 2: topo.TunnelPath2(), 3: topo.TunnelPath3()}
	tunnelIDs := []int{1, 2, 3}

	store := telemetry.NewStore()
	record := func() error {
		for id, p := range tunnels {
			avail, err := emu.PathAvailableMbps(p)
			if err != nil {
				return err
			}
			if err := store.Insert(telemetry.PathBandwidthKey(tunnelName(id)), emu.Now(), avail); err != nil {
				return err
			}
		}
		return nil
	}

	var opt *hecate.Optimizer
	if cfg.Policy == PolicyPredictive {
		opt, err = hecate.New(hecate.Config{Lag: 10, Horizon: 10, Model: cfg.Model})
		if err != nil {
			return nil, err
		}
	}
	retrain := func() error {
		if opt == nil {
			return nil
		}
		for _, id := range tunnelIDs {
			hist := store.LastN(telemetry.PathBandwidthKey(tunnelName(id)), 120)
			if len(hist) < 11 {
				return nil // not enough history yet; stay untrained
			}
			if err := opt.TrainPath(tunnelName(id), hist); err != nil {
				return err
			}
		}
		return nil
	}

	// The workload generator and the (random) policy draw from separate
	// streams so every policy sees the identical arrival sequence.
	rng := rand.New(rand.NewSource(cfg.Seed))
	policyRng := rand.New(rand.NewSource(cfg.Seed + 1))
	choose := func() (int, error) {
		switch cfg.Policy {
		case PolicyStatic:
			return 1, nil
		case PolicyRandom:
			return tunnelIDs[policyRng.Intn(len(tunnelIDs))], nil
		case PolicyReactive:
			return reactiveTunnel(emu, tunnels, tunnelIDs)
		case PolicyPredictive:
			if len(opt.TrainedPaths()) < len(tunnelIDs) {
				// Cold start: fall back to reactive until models exist.
				return reactiveTunnel(emu, tunnels, tunnelIDs)
			}
			histories := make(map[string][]float64, len(tunnelIDs))
			for _, id := range tunnelIDs {
				histories[tunnelName(id)] = store.LastN(telemetry.PathBandwidthKey(tunnelName(id)), 10)
			}
			rec, err := opt.Recommend(histories, hecate.MaxBandwidth)
			if err != nil {
				return 0, err
			}
			return tunnelIDFromName(rec.Path)
		default:
			return 0, fmt.Errorf("experiments: unknown policy %q", cfg.Policy)
		}
	}

	res := &WorkloadResult{Policy: cfg.Policy, Series: &timeseries.Series{}}
	nextArrival := rng.ExpFloat64() * cfg.MeanInterarrivalSec
	demandIdx := 0
	flowSeq := 0
	nextRetrain := cfg.RetrainEverySec
	lastRecorded := -1.0

	for emu.Now() < cfg.DurationSec {
		if err := emu.RunForContext(ctx, 1); err != nil {
			return nil, err
		}
		now := emu.Now()
		if now > lastRecorded {
			if err := record(); err != nil {
				return nil, err
			}
			total := emu.TotalActiveMbps()
			res.Series.MustAppend(now, total)
			if total > res.PeakTotalMbps {
				res.PeakTotalMbps = total
			}
			lastRecorded = now
		}
		if opt != nil && now >= nextRetrain {
			if err := retrain(); err != nil {
				return nil, err
			}
			nextRetrain += cfg.RetrainEverySec
		}
		for now >= nextArrival {
			tunnel, err := choose()
			if err != nil {
				return nil, err
			}
			path := tunnels[tunnel]
			demand := cfg.Demands[demandIdx%len(cfg.Demands)]
			demandIdx++
			flowSeq++
			id, err := emu.AddFlow(netem.FlowSpec{
				Name: fmt.Sprintf("wl-%d", flowSeq),
				Src:  path.Nodes[0], Dst: path.Nodes[len(path.Nodes)-1],
				ToS: uint8(4 * (1 + flowSeq%3)), Proto: 6,
				DemandMbps: demand, Path: path,
			})
			if err != nil {
				return nil, err
			}
			res.FlowsAdmitted++
			hold := rng.ExpFloat64() * cfg.MeanHoldSec
			emu.Schedule(now+hold, func(e *netem.Emulator) {
				_ = e.StopFlow(id)
			})
			nextArrival += rng.ExpFloat64() * cfg.MeanInterarrivalSec
		}
	}
	res.MeanTotalMbps = res.Series.Mean()
	return res, nil
}
