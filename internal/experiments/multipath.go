package experiments

import (
	"context"
	"fmt"

	"repro/internal/netem"
	"repro/internal/polka"
	"repro/internal/topo"
)

// MultipathConfig tunes the M-PolKA aggregation run.
type MultipathConfig struct {
	// SettleSec is how long the multipath flow ramps before the branch
	// rates are read (default 15 s).
	SettleSec float64
}

// DefaultMultipathConfig returns the canonical settings.
func DefaultMultipathConfig() MultipathConfig {
	return MultipathConfig{SettleSec: 15}
}

// The multipath experiment exercises the M-PolKA extension (reference
// [31]) end to end: a single route identifier encodes an *aggregation
// tree* — at MIA the packet stream splits toward both CHI and CAL — and
// one emulated multipath flow rides the two branches simultaneously,
// summing their bottlenecks.

// MultipathResult is the artifact of the M-PolKA aggregation run.
type MultipathResult struct {
	// RouteIDBits is the single M-PolKA label encoding the whole tree.
	RouteIDBits string
	// PortSets maps each router to the output-port set the routeID
	// yields there.
	PortSets map[string][]uint
	// AggregateMbps is the flow's steady throughput over both branches.
	AggregateMbps float64
	// BranchMbps lists the per-branch rates (tunnel 2, tunnel 3 order).
	BranchMbps []float64
}

// RunMultipathAggregationContext builds the M-PolKA tree covering tunnels
// 2 and 3 (MIA→{CHI,CAL}, CAL→CHI, CHI→AMS, AMS→host2), verifies the
// data-plane port sets, then drives a multipath flow over both branches
// in the emulator.
func RunMultipathAggregationContext(ctx context.Context, cfg MultipathConfig) (*MultipathResult, error) {
	if cfg.SettleSec <= 0 {
		cfg.SettleSec = 15
	}
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		return nil, err
	}
	routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
	// Multipath residues are port bitmasks, so the domain is sized by the
	// highest port number rather than its bit length.
	domain, err := polka.NewMultipathDomain(routers, lab.MaxPort())
	if err != nil {
		return nil, err
	}

	// Build the tree's per-node port sets from the two tunnel paths.
	// Tunnel 2: host1-MIA-CHI-AMS-host2; tunnel 3: host1-MIA-CAL-CHI-AMS-host2.
	portSets := map[string]uint64{}
	for _, p := range []topo.Path{topo.TunnelPath2(), topo.TunnelPath3()} {
		for i := 0; i+1 < len(p.Nodes); i++ {
			n, err := lab.Node(p.Nodes[i])
			if err != nil {
				return nil, err
			}
			if n.Kind != topo.Edge && n.Kind != topo.Core {
				continue
			}
			port, err := n.Port(p.Nodes[i+1])
			if err != nil {
				return nil, err
			}
			portSets[p.Nodes[i]] |= 1 << port
		}
	}
	// Tree node order: MIA, CAL, CHI, AMS.
	order := []string{topo.MIA, topo.CAL, topo.CHI, topo.AMS}
	hops := make([]polka.MultipathHop, 0, len(order))
	for _, name := range order {
		sw, err := domain.Switch(name)
		if err != nil {
			return nil, err
		}
		hops = append(hops, polka.MultipathHop{NodeID: sw.NodeID(), Ports: portSets[name]})
	}
	routeID, err := polka.ComputeMultipathRouteID(hops)
	if err != nil {
		return nil, fmt.Errorf("experiments: multipath routeID: %w", err)
	}
	res := &MultipathResult{
		RouteIDBits: routeID.BitString(),
		PortSets:    make(map[string][]uint, len(order)),
	}
	// Data-plane check: every router's residue is exactly its port set.
	for _, name := range order {
		sw, _ := domain.Switch(name)
		got := sw.OutputPort(routeID)
		if got != portSets[name] {
			return nil, fmt.Errorf("experiments: node %s residue %#b, want %#b", name, got, portSets[name])
		}
		res.PortSets[name] = polka.PortsFromSet(got)
	}

	// Ride the tree: a single multipath flow over both branches.
	emu := netem.New(lab, netem.Config{TickSeconds: 0.1, RampMbpsPerSec: 40})
	id, err := emu.AddFlow(netem.FlowSpec{
		Name: "mpolka",
		Src:  topo.HostMIA, Dst: topo.HostAMS,
		ToS: 4, Proto: 6,
		MultiPaths: []topo.Path{topo.TunnelPath2(), topo.TunnelPath3()},
	})
	if err != nil {
		return nil, err
	}
	if err := emu.RunForContext(ctx, cfg.SettleSec); err != nil {
		return nil, err
	}
	fl, err := emu.Flow(id)
	if err != nil {
		return nil, err
	}
	res.AggregateMbps = fl.RateMbps
	res.BranchMbps = fl.SubRates
	return res, nil
}

// expectedMIAPortSet re-derives the expected MIA port set from the
// topology (ports toward CHI and CAL); the multipath test checks the
// routeID's residue against it.
func expectedMIAPortSet(lab *topo.Topology) (uint64, error) {
	mia, err := lab.Node(topo.MIA)
	if err != nil {
		return 0, err
	}
	var mask uint64
	for _, nb := range []string{topo.CHI, topo.CAL} {
		p, err := mia.Port(nb)
		if err != nil {
			return 0, err
		}
		mask |= 1 << p
	}
	return mask, nil
}
