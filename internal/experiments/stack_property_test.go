package experiments

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/netem"
	"repro/internal/polka"
	"repro/internal/topo"
)

// TestWholeStackOnRandomTopologies is the generality property test: on
// arbitrary connected random graphs, every k-shortest path between two
// hosts must (1) encode into a PolKA routeID whose per-hop forwarding
// reproduces the path exactly, and (2) carry an emulated flow at a
// positive rate bounded by the path's bottleneck.
func TestWholeStackOnRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		lab, err := topo.RandomTopology(topo.RandomConfig{
			Cores:      4 + rng.Intn(10),
			ExtraLinks: rng.Intn(12),
			Hosts:      2,
			Seed:       rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		hosts := lab.NodesOfKind(topo.Host)
		src, dst := hosts[0], hosts[1]
		routers := lab.NodesOfKind(topo.Core)
		domain, err := polka.NewDomain(routers, lab.MaxPort())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		paths, err := lab.KShortestPaths(src, dst, 3, topo.ByDelay)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		emu := netem.New(lab, netem.Config{TickSeconds: 0.2, RampMbpsPerSec: 100})
		for pi, p := range paths {
			// (1) PolKA data-plane round trip on the router segment.
			var hops []polka.PathHop
			for i := 0; i+1 < len(p.Nodes); i++ {
				n, err := lab.Node(p.Nodes[i])
				if err != nil {
					t.Fatal(err)
				}
				if n.Kind != topo.Core {
					continue
				}
				port, err := n.Port(p.Nodes[i+1])
				if err != nil {
					t.Fatal(err)
				}
				hops = append(hops, polka.PathHop{Node: p.Nodes[i], Port: port})
			}
			if len(hops) == 0 {
				t.Fatalf("trial %d path %d: no router hops in %v", trial, pi, p)
			}
			rid, err := domain.EncodePath(hops)
			if err != nil {
				t.Fatalf("trial %d path %d: encode: %v", trial, pi, err)
			}
			if err := domain.VerifyPath(rid, hops); err != nil {
				t.Fatalf("trial %d path %d: verify: %v", trial, pi, err)
			}
			// (2) The emulator carries a flow on the path.
			id, err := emu.AddFlow(netem.FlowSpec{
				Name: "prop", Src: src, Dst: dst, ToS: 4, Proto: 6, Path: p,
			})
			if err != nil {
				t.Fatalf("trial %d path %d: addflow: %v", trial, pi, err)
			}
			if err := emu.RunForContext(context.Background(), 5); err != nil {
				t.Fatal(err)
			}
			fl, err := emu.Flow(id)
			if err != nil {
				t.Fatal(err)
			}
			bott, err := lab.PathBottleneckMbps(p)
			if err != nil {
				t.Fatal(err)
			}
			if fl.RateMbps <= 0 {
				t.Fatalf("trial %d path %d: flow carried nothing", trial, pi)
			}
			if fl.RateMbps > bott+1e-6 {
				t.Fatalf("trial %d path %d: rate %v exceeds bottleneck %v", trial, pi, fl.RateMbps, bott)
			}
			if err := emu.StopFlow(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}
