package topo

import (
	"strings"
	"testing"
)

func buildLab(t *testing.T) *Topology {
	t.Helper()
	lab, err := BuildGlobalP4Lab(DefaultGlobalP4LabConfig())
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestAddNodeAndLinkValidation(t *testing.T) {
	tp := New()
	if err := tp.AddNode("", Host); err == nil {
		t.Error("empty name should fail")
	}
	if err := tp.AddNode("a", Host); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddNode("a", Host); err == nil {
		t.Error("duplicate node should fail")
	}
	if err := tp.AddNode("b", Core); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink("a", "missing", LinkAttrs{CapacityMbps: 1}); err == nil {
		t.Error("unknown endpoint should fail")
	}
	if err := tp.AddLink("a", "a", LinkAttrs{CapacityMbps: 1}); err == nil {
		t.Error("self link should fail")
	}
	if err := tp.AddLink("a", "b", LinkAttrs{CapacityMbps: 0}); err == nil {
		t.Error("zero capacity should fail")
	}
	if err := tp.AddLink("a", "b", LinkAttrs{CapacityMbps: 1, DelayMs: -1}); err == nil {
		t.Error("negative delay should fail")
	}
	if err := tp.AddLink("a", "b", LinkAttrs{CapacityMbps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink("a", "b", LinkAttrs{CapacityMbps: 1}); err == nil {
		t.Error("duplicate link should fail")
	}
}

func TestPortNumbering(t *testing.T) {
	lab := buildLab(t)
	mia, err := lab.Node(MIA)
	if err != nil {
		t.Fatal(err)
	}
	// MIA attaches in order: host1, SAO, CHI, CAL → ports 1..4.
	wantOrder := []string{HostMIA, SAO, CHI, CAL}
	got := mia.Neighbors()
	if len(got) != len(wantOrder) {
		t.Fatalf("MIA neighbors = %v", got)
	}
	for i, nb := range wantOrder {
		if got[i] != nb {
			t.Errorf("MIA neighbor %d = %q, want %q", i, got[i], nb)
		}
		p, err := mia.Port(nb)
		if err != nil || p != uint64(i+1) {
			t.Errorf("MIA port to %s = %d (%v), want %d", nb, p, err, i+1)
		}
	}
	if _, err := mia.Port("AMS"); err == nil {
		t.Error("MIA has no direct port to AMS")
	}
	if mia.Degree() != 4 {
		t.Errorf("MIA degree = %d, want 4", mia.Degree())
	}
}

func TestGlobalP4LabShape(t *testing.T) {
	lab := buildLab(t)
	if got := len(lab.Nodes()); got != 7 {
		t.Errorf("node count = %d, want 7", got)
	}
	if got := len(lab.Links()); got != 16 { // 8 undirected links, 2 directions
		t.Errorf("directed link count = %d, want 16", got)
	}
	if hosts := lab.NodesOfKind(Host); len(hosts) != 2 {
		t.Errorf("hosts = %v", hosts)
	}
	if edges := lab.NodesOfKind(Edge); len(edges) != 2 {
		t.Errorf("edges = %v", edges)
	}
	if cores := lab.NodesOfKind(Core); len(cores) != 3 {
		t.Errorf("cores = %v", cores)
	}
	// Experiment-2 capacities.
	for _, c := range []struct {
		a, b string
		cap  float64
	}{
		{MIA, SAO, 20}, {SAO, AMS, 20}, {CHI, AMS, 20},
		{MIA, CHI, 10}, {MIA, CAL, 5}, {CAL, CHI, 5},
	} {
		l, err := lab.Link(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if l.Attrs.CapacityMbps != c.cap {
			t.Errorf("link %s-%s capacity = %v, want %v", c.a, c.b, l.Attrs.CapacityMbps, c.cap)
		}
	}
	// The 20 ms injected delay sits on MIA-SAO.
	l, _ := lab.Link(MIA, SAO)
	if l.Attrs.DelayMs < 20 {
		t.Errorf("MIA-SAO delay = %v, want ≥ 20", l.Attrs.DelayMs)
	}
}

func TestTunnelPathsAreValid(t *testing.T) {
	lab := buildLab(t)
	for i, p := range []Path{TunnelPath1(), TunnelPath2(), TunnelPath3()} {
		if _, err := lab.PathLinks(p); err != nil {
			t.Errorf("tunnel %d (%v): %v", i+1, p, err)
		}
	}
	b1, _ := lab.PathBottleneckMbps(TunnelPath1())
	b2, _ := lab.PathBottleneckMbps(TunnelPath2())
	b3, _ := lab.PathBottleneckMbps(TunnelPath3())
	if b1 != 20 || b2 != 10 || b3 != 5 {
		t.Errorf("tunnel bottlenecks = %v, %v, %v; want 20, 10, 5", b1, b2, b3)
	}
	d1, _ := lab.PathDelayMs(TunnelPath1())
	d2, _ := lab.PathDelayMs(TunnelPath2())
	if d1 <= d2 {
		t.Errorf("tunnel 1 delay (%v) should exceed tunnel 2 (%v): 20ms tc on MIA-SAO", d1, d2)
	}
}

func TestShortestPathByDelayAvoidsSAO(t *testing.T) {
	lab := buildLab(t)
	p, err := lab.ShortestPath(HostMIA, HostAMS, ByDelay)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(TunnelPath2()) {
		t.Errorf("min-delay path = %v, want %v", p, TunnelPath2())
	}
}

func TestShortestPathErrors(t *testing.T) {
	lab := buildLab(t)
	if _, err := lab.ShortestPath("nope", HostAMS, ByHops); err == nil {
		t.Error("unknown src should fail")
	}
	if _, err := lab.ShortestPath(HostMIA, "nope", ByHops); err == nil {
		t.Error("unknown dst should fail")
	}
	// Disconnected node.
	tp := New()
	_ = tp.AddNode("a", Host)
	_ = tp.AddNode("b", Host)
	if _, err := tp.ShortestPath("a", "b", ByHops); err == nil {
		t.Error("disconnected nodes should fail")
	}
}

func TestKShortestPathsEnumeratesTunnels(t *testing.T) {
	lab := buildLab(t)
	paths, err := lab.KShortestPaths(HostMIA, HostAMS, 3, ByDelay)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	// All three tunnels must be found, in increasing delay order:
	// T2 (≈7.2ms) < T3 (≈7.7ms... depends) < T1 (≈25ms).
	found := map[string]bool{}
	for _, p := range paths {
		found[p.String()] = true
	}
	for _, want := range []Path{TunnelPath1(), TunnelPath2(), TunnelPath3()} {
		if !found[want.String()] {
			t.Errorf("k-shortest missing %v; got %v", want, paths)
		}
	}
	if !paths[0].Equal(TunnelPath2()) {
		t.Errorf("cheapest path = %v, want %v", paths[0], TunnelPath2())
	}
	// Costs must be non-decreasing.
	var prev float64 = -1
	for _, p := range paths {
		d, err := lab.PathDelayMs(p)
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Errorf("paths not in cost order: %v", paths)
		}
		prev = d
	}
}

func TestKShortestPathsLoopFree(t *testing.T) {
	lab := buildLab(t)
	paths, err := lab.KShortestPaths(HostMIA, HostAMS, 6, ByHops)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		seen := map[string]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path %v revisits %s", p, n)
			}
			seen[n] = true
		}
	}
	if _, err := lab.KShortestPaths(HostMIA, HostAMS, 0, ByHops); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestPortsAlongMatchesLinks(t *testing.T) {
	lab := buildLab(t)
	ports, err := lab.PortsAlong(TunnelPath3())
	if err != nil {
		t.Fatal(err)
	}
	p := TunnelPath3()
	if len(ports) != p.Len() {
		t.Fatalf("ports = %v for %d-link path", ports, p.Len())
	}
	for i := range ports {
		n, _ := lab.Node(p.Nodes[i])
		want, _ := n.Port(p.Nodes[i+1])
		if ports[i] != want {
			t.Errorf("port %d = %d, want %d", i, ports[i], want)
		}
	}
	if _, err := lab.PortsAlong(Path{Nodes: []string{MIA}}); err == nil {
		t.Error("short path should fail")
	}
}

func TestPathHelpers(t *testing.T) {
	p := TunnelPath1()
	if got := p.String(); got != "host1-MIA-SAO-AMS-host2" {
		t.Errorf("String = %q", got)
	}
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
	if p.Equal(TunnelPath2()) {
		t.Error("tunnel 1 should differ from tunnel 2")
	}
	if !p.Equal(TunnelPath1()) {
		t.Error("path should equal itself")
	}
	if (Path{}).Len() != 0 {
		t.Error("empty path Len should be 0")
	}
}

func TestMaxPort(t *testing.T) {
	lab := buildLab(t)
	if got := lab.MaxPort(); got != 4 {
		t.Errorf("MaxPort = %d, want 4 (MIA has 4 neighbors)", got)
	}
}

func TestBuildTriangle(t *testing.T) {
	tri, err := BuildTriangle(
		LinkAttrs{CapacityMbps: 10, DelayMs: 5},
		LinkAttrs{CapacityMbps: 20, DelayMs: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := tri.KShortestPaths("s", "d", 2, ByHops)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("triangle paths = %v", paths)
	}
	if paths[0].String() != "s-d" || paths[1].String() != "s-i-d" {
		t.Errorf("triangle paths = %v, %v", paths[0], paths[1])
	}
}

func TestNodeKindString(t *testing.T) {
	if Host.String() != "host" || Edge.String() != "edge" || Core.String() != "core" {
		t.Error("NodeKind names wrong")
	}
	if !strings.Contains(NodeKind(42).String(), "42") {
		t.Error("unknown kind should include the number")
	}
}

func TestLinksDeterministicOrder(t *testing.T) {
	lab := buildLab(t)
	a := lab.Links()
	b := lab.Links()
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatal("Links() order not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].ID() >= a[i].ID() {
			t.Fatal("Links() not sorted")
		}
	}
}

// TestLinkIndexAndCachedLinks: directed links are numbered densely in the
// order they were added, Link resolves both directions to the link with
// that number, and the sorted view Links caches is dropped when the
// topology grows and cannot be corrupted through a returned slice.
func TestLinkIndexAndCachedLinks(t *testing.T) {
	lab := buildLab(t)
	links := lab.Links()
	seen := make([]bool, len(links))
	for _, l := range links {
		if l.Index() < 0 || l.Index() >= len(links) || seen[l.Index()] {
			t.Fatalf("link %s has index %d among %d links", l.ID(), l.Index(), len(links))
		}
		seen[l.Index()] = true
		if l.ID() != l.From+"->"+l.To {
			t.Errorf("stored ID %q for %s->%s", l.ID(), l.From, l.To)
		}
		got, err := lab.Link(l.From, l.To)
		if err != nil || got != l {
			t.Errorf("Link(%s, %s) = %v, %v; want the link Links lists", l.From, l.To, got, err)
		}
	}
	if _, err := lab.Link(HostMIA, HostAMS); err == nil {
		t.Error("Link found a link between non-adjacent nodes")
	}
	if _, err := lab.Link("nowhere", MIA); err == nil {
		t.Error("Link found a link from an unknown node")
	}
	if (Link{From: "a", To: "b"}).ID() != "a->b" {
		t.Error("a link outside any topology lost its ID")
	}

	links[0], links[1] = links[1], links[0] // the caller's copy
	if err := lab.AddNode("late", Host); err != nil {
		t.Fatal(err)
	}
	if err := lab.AddLink("late", MIA, LinkAttrs{CapacityMbps: 1}); err != nil {
		t.Fatal(err)
	}
	grown := lab.Links()
	if len(grown) != len(links)+2 {
		t.Fatalf("Links() lists %d links after adding one, was %d", len(grown), len(links))
	}
	for i := 1; i < len(grown); i++ {
		if grown[i-1].ID() >= grown[i].ID() {
			t.Fatalf("Links() not sorted after growth: %s before %s", grown[i-1].ID(), grown[i].ID())
		}
	}
	late, err := lab.Link("late", MIA)
	if err != nil || late.Index() != len(links) {
		t.Errorf("new link indexed %v (%v), want %d", late, err, len(links))
	}
}
