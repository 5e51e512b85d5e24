package controlplane

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bus"
	"repro/internal/hecate"
	"repro/internal/netem"
	"repro/internal/topo"
)

// Framework is the assembled Hecate–PolKA system: the emulated testbed,
// the PolKA data plane, and all five services wired over one bus. It is
// what cmd/frameworkd runs and what the experiment harnesses drive.
type Framework struct {
	Bus       bus.Bus
	Emu       *netem.Emulator
	Polka     *PolkaService
	Telemetry *TelemetryService
	Hecate    *HecateService
	Control   *Controller
	Scheduler *Scheduler
	Dash      *Dashboard
	Tunnels   map[int]topo.Path

	ownBus bool
}

// FrameworkConfig assembles a framework instance.
type FrameworkConfig struct {
	// Bus is the message transport; nil creates an in-process bus.
	Bus bus.Bus
	// Topology is the network; nil builds the Global P4 Lab testbed.
	Topology *topo.Topology
	// Netem tunes the emulator.
	Netem netem.Config
	// Hecate tunes the optimizer (zero value = paper defaults: RFR,
	// lag 10, horizon 10).
	Hecate hecate.Config
	// IngressEdge names the edge router holding tunnels and PBR
	// ("MIA" on the lab topology).
	IngressEdge string
	// Tunnels maps tunnel IDs to host-to-host paths; nil provisions the
	// lab's tunnels 1–3 unless AutoProvision is set.
	Tunnels map[int]topo.Path
	// AutoProvision, when non-nil and Tunnels is nil, derives the tunnel
	// set automatically from the K cheapest loop-free paths between Src
	// and Dst (Yen's algorithm under the given metric) — how a controller
	// would bootstrap tunnels on an arbitrary topology instead of the
	// hand-picked experiment paths.
	AutoProvision *AutoProvision
	// TelemetryIntervalSec is the collection period on the emulated
	// clock (default 1 s, the UQ trace's sampling rate).
	TelemetryIntervalSec float64
	// RequestTimeout bounds service round trips.
	RequestTimeout time.Duration
}

// AutoProvision derives a tunnel set from k-shortest paths.
type AutoProvision struct {
	// Src and Dst are the host endpoints tunnels connect.
	Src, Dst string
	// K is the number of tunnels to provision.
	K int
	// Weight is the path metric (topo.ByDelay, ByHops, ByInverseCapacity).
	Weight topo.Weight
}

// provision computes the tunnel map: tunnel i+1 gets the i-th cheapest
// loop-free path.
func (a *AutoProvision) provision(t *topo.Topology) (map[int]topo.Path, error) {
	if a.K < 1 {
		a.K = 3
	}
	paths, err := t.KShortestPaths(a.Src, a.Dst, a.K, a.Weight)
	if err != nil {
		return nil, fmt.Errorf("controlplane: auto-provisioning tunnels: %w", err)
	}
	out := make(map[int]topo.Path, len(paths))
	for i, p := range paths {
		out[i+1] = p
	}
	return out, nil
}

// NewFramework wires and starts every service. Call Stop when done.
func NewFramework(cfg FrameworkConfig) (*Framework, error) {
	f := &Framework{}
	if cfg.Bus == nil {
		f.Bus = bus.NewInProc()
		f.ownBus = true
	} else {
		f.Bus = cfg.Bus
	}
	if cfg.Topology == nil {
		t, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
		if err != nil {
			return nil, err
		}
		cfg.Topology = t
	}
	if cfg.IngressEdge == "" {
		cfg.IngressEdge = topo.MIA
	}
	if cfg.Tunnels == nil {
		if cfg.AutoProvision != nil {
			tunnels, err := cfg.AutoProvision.provision(cfg.Topology)
			if err != nil {
				return nil, err
			}
			cfg.Tunnels = tunnels
		} else {
			cfg.Tunnels = map[int]topo.Path{
				1: topo.TunnelPath1(),
				2: topo.TunnelPath2(),
				3: topo.TunnelPath3(),
			}
		}
	}
	if cfg.TelemetryIntervalSec <= 0 {
		cfg.TelemetryIntervalSec = 1
	}
	f.Tunnels = cfg.Tunnels
	f.Emu = netem.New(cfg.Topology, cfg.Netem)

	var err error
	if f.Polka, err = NewPolkaService(f.Bus, f.Emu, cfg.IngressEdge, cfg.Tunnels); err != nil {
		f.Stop()
		return nil, fmt.Errorf("controlplane: starting polka service: %w", err)
	}
	if f.Telemetry, err = NewTelemetryService(f.Bus, f.Emu, cfg.Tunnels); err != nil {
		f.Stop()
		return nil, fmt.Errorf("controlplane: starting telemetry service: %w", err)
	}
	if f.Hecate, err = NewHecateService(f.Bus, cfg.Hecate); err != nil {
		f.Stop()
		return nil, fmt.Errorf("controlplane: starting hecate service: %w", err)
	}
	ids := make([]int, 0, len(cfg.Tunnels))
	for id := range cfg.Tunnels {
		ids = append(ids, id)
	}
	// Deterministic controller wiring: map order must not decide the
	// tunnel scan order.
	sort.Ints(ids)
	lag := cfg.Hecate.Lag
	if lag < 1 {
		lag = 10
	}
	if f.Control, err = NewController(f.Bus, ControllerConfig{
		TunnelIDs: ids, Lag: lag, RequestTimeout: cfg.RequestTimeout,
	}); err != nil {
		f.Stop()
		return nil, fmt.Errorf("controlplane: starting controller: %w", err)
	}
	if f.Scheduler, err = NewScheduler(f.Bus, cfg.RequestTimeout); err != nil {
		f.Stop()
		return nil, fmt.Errorf("controlplane: starting scheduler: %w", err)
	}
	if f.Dash, err = NewDashboard(f.Bus, cfg.RequestTimeout); err != nil {
		f.Stop()
		return nil, fmt.Errorf("controlplane: starting dashboard: %w", err)
	}
	f.Telemetry.StartCollection(f.Emu, cfg.TelemetryIntervalSec)
	return f, nil
}

// TunnelPath returns a provisioned tunnel's path.
func (f *Framework) TunnelPath(id int) (topo.Path, error) {
	return pathByID(f.Tunnels, id)
}

// RunFor advances the emulated clock by d seconds, aborting early with
// ctx's error when the context is canceled. Experiment harnesses drive
// their phases through this so long runs stay cancellable end to end.
func (f *Framework) RunFor(ctx context.Context, d float64) error {
	return f.Emu.RunForContext(ctx, d)
}

// Warmup accumulates d seconds of telemetry and then trains the Hecate
// models for the objective — the common preamble of every testbed
// experiment, under one context.
func (f *Framework) Warmup(ctx context.Context, objective string, d float64) error {
	if err := f.RunFor(ctx, d); err != nil {
		return err
	}
	return f.Control.TrainHecateContext(ctx, objective, int(d))
}

// Stop shuts every started service down, then the bus if the framework
// owns it. Safe to call on a partially constructed framework.
func (f *Framework) Stop() {
	if f.Dash != nil {
		f.Dash.Stop()
	}
	if f.Scheduler != nil {
		f.Scheduler.Stop()
	}
	if f.Control != nil {
		f.Control.Stop()
	}
	if f.Hecate != nil {
		f.Hecate.Stop()
	}
	if f.Telemetry != nil {
		f.Telemetry.Stop()
	}
	if f.Polka != nil {
		f.Polka.Stop()
	}
	if f.ownBus && f.Bus != nil {
		_ = f.Bus.Close()
	}
}
