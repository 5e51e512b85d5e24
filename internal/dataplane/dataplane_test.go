package dataplane

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/polka"
	"repro/internal/topo"
)

// labEngine builds an engine over the Global P4 Lab with a multipath-sized
// domain spanning the edge and core routers, so one engine serves all three
// forwarding modes; hosts are the delivery endpoints.
func labEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		t.Fatal(err)
	}
	routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
	domain, err := polka.NewMultipathDomain(routers, lab.MaxPort())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Domain = domain
	e, err := New(lab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// copyKey names the copies of one packet that arrive at one node.
type copyKey struct {
	id   uint64
	node string
}

// pathTrace rebuilds every delivered copy's traversal from Config.Trace
// events: each forwarding or delivery event appends its (Node, Port) to the
// path of the copy it acted on, so a delivered path is directly comparable
// to the []polka.PathHop its route was encoded from. Copies arriving at a
// node are matched to its events in arrival order, which is exact when only
// the injection node replicates — true of every route traced here.
type pathTrace struct {
	arriving  map[copyKey][][]polka.PathHop
	delivered map[uint64][][]polka.PathHop
}

func newPathTrace() *pathTrace {
	pt := &pathTrace{}
	pt.reset()
	return pt
}

func (pt *pathTrace) reset() {
	pt.arriving = map[copyKey][][]polka.PathHop{}
	pt.delivered = map[uint64][][]polka.PathHop{}
}

func (pt *pathTrace) record(ev TraceEvent) {
	k := copyKey{ev.PacketID, ev.Node}
	var path []polka.PathHop
	if q := pt.arriving[k]; len(q) > 0 {
		path, pt.arriving[k] = q[0], q[1:]
	}
	if ev.Drop != DropNone {
		return
	}
	path = append(slices.Clip(path), polka.PathHop{Node: ev.Node, Port: ev.Port})
	if ev.Delivered {
		pt.delivered[ev.PacketID] = append(pt.delivered[ev.PacketID], path)
		return
	}
	next := copyKey{ev.PacketID, ev.Next}
	pt.arriving[next] = append(pt.arriving[next], path)
}

// path returns the one delivered traversal of a unicast packet.
func (pt *pathTrace) path(t *testing.T, id uint64) []polka.PathHop {
	t.Helper()
	if paths := pt.delivered[id]; len(paths) == 1 {
		return paths[0]
	}
	t.Fatalf("packet %d: %d delivered traversals, want 1", id, len(pt.delivered[id]))
	return nil
}

func TestUnicastDeliveryAcrossLab(t *testing.T) {
	pt := newPathTrace()
	e := labEngine(t, Config{Trace: pt.record})
	for _, tun := range []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()} {
		e.Reset()
		pt.reset()
		r, err := e.UnicastRoute(tun)
		if err != nil {
			t.Fatalf("%v: %v", tun, err)
		}
		// The engine's traversal must agree with the PolKA verifier.
		if err := e.VerifyRoute(r); err != nil {
			t.Fatalf("%v: VerifyRoute: %v", tun, err)
		}
		if err := e.InjectBatch(r.Inject, r.NewPackets(10, 1500)); err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Delivered != 10 || stats.Dropped() != 0 {
			t.Fatalf("%v: delivered %d dropped %d, want 10/0", tun, stats.Delivered, stats.Dropped())
		}
		if stats.DeliveredBytes != 10*1500 {
			t.Fatalf("%v: delivered %d bytes", tun, stats.DeliveredBytes)
		}
		for _, pkt := range e.Delivered() {
			if pkt.Egress != topo.HostAMS {
				t.Fatalf("%v: delivered at %q, want %q", tun, pkt.Egress, topo.HostAMS)
			}
			if path := pt.path(t, pkt.ID); !slices.Equal(path, r.Hops) {
				t.Fatalf("%v: traversed %v, want %v", tun, path, r.Hops)
			}
		}
	}
}

func TestEgressHistogram(t *testing.T) {
	e := labEngine(t, Config{})
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(7, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every packet left MIA through the encoded port toward SAO.
	ns, err := e.NodeStats(topo.MIA)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Rx != 7 || ns.Tx != 7 {
		t.Fatalf("MIA rx/tx = %d/%d, want 7/7", ns.Rx, ns.Tx)
	}
	if got := ns.Egress[r.Hops[0].Port]; got != 7 {
		t.Fatalf("MIA egress[%d] = %d, want 7", r.Hops[0].Port, got)
	}
	for p, c := range ns.Egress {
		if uint64(p) != r.Hops[0].Port && c != 0 {
			t.Fatalf("MIA egress[%d] = %d, want 0", p, c)
		}
	}
}

func TestMulticastTree(t *testing.T) {
	pt := newPathTrace()
	e := labEngine(t, Config{Trace: pt.record})
	lab := e.Topology()
	// MIA replicates to SAO and CHI; both forward to AMS; AMS delivers to
	// host2. host2 receives two copies, one per branch.
	port := func(node, toward string) uint {
		n, err := lab.Node(node)
		if err != nil {
			t.Fatal(err)
		}
		p, err := n.Port(toward)
		if err != nil {
			t.Fatal(err)
		}
		return uint(p)
	}
	set := func(ports ...uint) uint64 {
		m, err := polka.PortSet(ports...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tree := map[string]uint64{
		topo.MIA: set(port(topo.MIA, topo.SAO), port(topo.MIA, topo.CHI)),
		topo.SAO: set(port(topo.SAO, topo.AMS)),
		topo.CHI: set(port(topo.CHI, topo.AMS)),
		topo.AMS: set(port(topo.AMS, topo.HostAMS)),
	}
	r, err := e.MulticastRoute(topo.MIA, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Each node's data-plane port set must match the encoded mask.
	if err := e.VerifyRoute(r); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(5, 200)); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 10 || stats.Dropped() != 0 {
		t.Fatalf("delivered %d dropped %d, want 10/0 (two copies per packet)", stats.Delivered, stats.Dropped())
	}
	for _, pkt := range e.Delivered() {
		if pkt.Egress != topo.HostAMS {
			t.Fatalf("delivered at %q, want %q", pkt.Egress, topo.HostAMS)
		}
	}
	branches := map[string]int{}
	for _, paths := range pt.delivered {
		for _, path := range paths {
			if len(path) != 3 {
				t.Fatalf("traversal %v, want 3 hops", path)
			}
			branches[path[1].Node]++
		}
	}
	if branches[topo.SAO] != 5 || branches[topo.CHI] != 5 {
		t.Fatalf("branch counts %v, want 5 via SAO and 5 via CHI", branches)
	}
}

func TestPoTDeliveryAndSkipDetection(t *testing.T) {
	pt := newPathTrace()
	e := labEngine(t, Config{Trace: pt.record})
	r, err := e.PoTRoute(topo.TunnelPath3(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.VerifyRoute(r); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(4, 64)); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 4 || stats.PoTVerified != 4 || stats.Dropped() != 0 {
		t.Fatalf("delivered %d verified %d dropped %d, want 4/4/0",
			stats.Delivered, stats.PoTVerified, stats.Dropped())
	}
	for _, pkt := range e.Delivered() {
		if path := pt.path(t, pkt.ID); !slices.Equal(path, r.Hops) {
			t.Fatalf("traversed %v, want %v", path, r.Hops)
		}
	}

	// A packet injected past the first protected hop misses that hop's tag
	// and must be rejected at egress verification.
	e.Reset()
	if _, err := e.Inject(r.Hops[1].Node, r.NewPacket(64)); err != nil {
		t.Fatal(err)
	}
	stats, err = e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 0 || stats.PoTDrops != 1 {
		t.Fatalf("skip: delivered %d potDrops %d, want 0/1", stats.Delivered, stats.PoTDrops)
	}
}

func TestTTLExpiry(t *testing.T) {
	e := labEngine(t, Config{})
	r, err := e.UnicastRoute(topo.TunnelPath3()) // 4 forwarding hops
	if err != nil {
		t.Fatal(err)
	}
	pkt := r.NewPacket(100)
	pkt.TTL = 2
	if _, err := e.Inject(r.Inject, pkt); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 0 || stats.TTLDrops != 1 {
		t.Fatalf("delivered %d ttlDrops %d, want 0/1", stats.Delivered, stats.TTLDrops)
	}
}

func TestBadPortDrop(t *testing.T) {
	e := labEngine(t, Config{})
	// The zero routeID reduces to residue 0 everywhere; port 0 names no
	// link, so the packet is counted as misrouted.
	if _, err := e.Inject(topo.MIA, Packet{RouteID: nil, Size: 10}); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.BadPortDrops != 1 || stats.Delivered != 0 {
		t.Fatalf("badPortDrops %d delivered %d, want 1/0", stats.BadPortDrops, stats.Delivered)
	}
}

func TestRouteValidation(t *testing.T) {
	e := labEngine(t, Config{})
	cases := []struct {
		name string
		path topo.Path
	}{
		{"no forwarding nodes", topo.Path{Nodes: []string{topo.HostMIA, topo.HostAMS}}},
		{"ends inside domain", topo.Path{Nodes: []string{topo.HostMIA, topo.MIA, topo.SAO}}},
		{"unknown node", topo.Path{Nodes: []string{topo.HostMIA, topo.MIA, "nowhere", topo.HostAMS}}},
	}
	for _, c := range cases {
		if _, err := e.UnicastRoute(c.path); err == nil {
			t.Errorf("%s: UnicastRoute(%v) succeeded, want error", c.name, c.path)
		}
	}
	if _, err := e.MulticastRoute(topo.SAO, map[string]uint64{topo.MIA: 2}); err == nil {
		t.Error("multicast root missing from port sets accepted")
	}
	if _, err := e.Inject(topo.HostMIA, Packet{}); err == nil {
		t.Error("injection at a non-forwarding node accepted")
	}
}

func TestRunContextCancellation(t *testing.T) {
	e := labEngine(t, Config{})
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(3, 10)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// The packets remain queued and a live context finishes the job.
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 3 {
		t.Fatalf("delivered %d after resume, want 3", stats.Delivered)
	}
}

// TestRandomTopologyPathsVerify injects packets over shortest paths of
// random connected graphs and checks that every delivered packet's recorded
// traversal matches the encoded hop list — the packet engine agreeing with
// polka.VerifyPath on arbitrary topologies.
func TestRandomTopologyPathsVerify(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tp, err := topo.RandomTopology(topo.RandomConfig{Cores: 10, ExtraLinks: 8, Hosts: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pt := newPathTrace()
		e, err := New(tp, Config{Trace: pt.record})
		if err != nil {
			t.Fatal(err)
		}
		hosts := tp.NodesOfKind(topo.Host)
		var want [][]polka.PathHop // indexed by packet ID - 1 (IDs count injections from 1)
		for i := 0; i < len(hosts); i++ {
			for j := 0; j < len(hosts); j++ {
				if i == j {
					continue
				}
				p, err := tp.ShortestPath(hosts[i], hosts[j], topo.ByHops)
				if err != nil {
					continue
				}
				r, err := e.UnicastRoute(p)
				if err != nil {
					t.Fatalf("seed %d: %v: %v", seed, p, err)
				}
				if err := e.VerifyRoute(r); err != nil {
					t.Fatalf("seed %d: %v: %v", seed, p, err)
				}
				if err := e.InjectBatch(r.Inject, r.NewPackets(3, 100)); err != nil {
					t.Fatal(err)
				}
				want = append(want, r.Hops, r.Hops, r.Hops)
			}
		}
		injected := len(want)
		if injected == 0 {
			t.Fatalf("seed %d: no routable host pairs", seed)
		}
		stats, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Delivered != uint64(injected) || stats.Dropped() != 0 {
			t.Fatalf("seed %d: delivered %d dropped %d, want %d/0",
				seed, stats.Delivered, stats.Dropped(), injected)
		}
		for _, pkt := range e.Delivered() {
			if path := pt.path(t, pkt.ID); !slices.Equal(path, want[pkt.ID-1]) {
				t.Fatalf("seed %d: packet %d traversed %v, want %v", seed, pkt.ID, path, want[pkt.ID-1])
			}
		}
	}
}

func ExampleEngine() {
	lab, _ := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
	domain, _ := polka.NewDomain(routers, lab.MaxPort())
	e, _ := New(lab, Config{Domain: domain})
	r, _ := e.UnicastRoute(topo.TunnelPath1())
	_ = e.InjectBatch(r.Inject, r.NewPackets(100, 1500))
	stats, _ := e.Run(context.Background())
	fmt.Printf("delivered %d packets over %d hops\n", stats.Delivered, stats.Hops)
	// Output: delivered 100 packets over 300 hops
}

// triangleEngine builds an engine over the all-core Fig. 2 triangle with a
// multipath domain spanning every node — a fully forwarding domain with no
// delivery endpoints, used to exercise the replication-loop guards.
func triangleEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	tri, err := topo.BuildTriangle(topo.LinkAttrs{CapacityMbps: 10, DelayMs: 1},
		topo.LinkAttrs{CapacityMbps: 10, DelayMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	domain, err := polka.NewMultipathDomain(tri.Nodes(), tri.MaxPort())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Domain = domain
	e, err := New(tri, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMulticastRouteRejectsCycles(t *testing.T) {
	e := triangleEngine(t, Config{})
	port := func(node, toward string) uint64 {
		n, err := e.Topology().Node(node)
		if err != nil {
			t.Fatal(err)
		}
		p, err := n.Port(toward)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// s → i and i → s is a replication cycle.
	if _, err := e.MulticastRoute("s", map[string]uint64{
		"s": 1 << port("s", "i"),
		"i": 1 << port("i", "s"),
	}); err == nil {
		t.Fatal("cyclic multicast tree accepted")
	}
	// A port beyond the node's degree is certain misconfiguration.
	if _, err := e.MulticastRoute("s", map[string]uint64{"s": 1 << 5}); err == nil {
		t.Fatal("out-of-range multicast port accepted")
	}
	// Re-convergence without a cycle stays legal: both s branches reach d.
	if _, err := e.MulticastRoute("s", map[string]uint64{
		"s": 1<<port("s", "i") | 1<<port("s", "d"),
		"i": 1 << port("i", "d"),
	}); err != nil {
		t.Fatalf("re-convergent (acyclic) tree rejected: %v", err)
	}
}

func TestMaxInFlightStopsAmplification(t *testing.T) {
	e := triangleEngine(t, Config{MaxInFlight: 500})
	// The cyclic amplifying routeID MulticastRoute refuses: the population
	// doubles every cycle until the cap trips.
	injectAmplifier(t, e)
	if _, err := e.Run(context.Background()); err == nil {
		t.Fatal("Run completed despite geometric replication; want in-flight cap error")
	}
}

func TestInjectRespectsMaxInFlight(t *testing.T) {
	e := labEngine(t, Config{MaxInFlight: 10})
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inject(r.Inject, r.NewPacket(1)); err == nil {
		t.Fatal("injection beyond MaxInFlight accepted")
	}
	// Draining frees the budget.
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inject(r.Inject, r.NewPacket(1)); err != nil {
		t.Fatalf("injection after drain rejected: %v", err)
	}
}
