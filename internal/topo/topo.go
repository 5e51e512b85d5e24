// Package topo models the network topology the framework routes over:
// named nodes (hosts, edge routers, core routers), directed links with
// capacity and propagation delay, and the path-computation primitives
// (Dijkstra shortest path, Yen k-shortest paths) the optimizer chooses
// among.
//
// Port numbering follows the PolKA convention: every node numbers its
// attached links 1..k in attachment order, and the port a path takes at a
// node is the local number of the egress link. That numbering is what gets
// encoded into routeID residues.
package topo

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// NodeKind classifies a node's role in the testbed.
type NodeKind int

// Node roles. Edge routers hold the tunnels, access lists and PBR entries;
// core routers are stateless PolKA forwarders; hosts source and sink flows.
const (
	Host NodeKind = iota
	Edge
	Core
)

// String returns the role name.
func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Edge:
		return "edge"
	case Core:
		return "core"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a named network element.
type Node struct {
	// Name is the unique node identifier (e.g. "MIA", "host1").
	Name string
	// Kind is the node's role.
	Kind NodeKind
	// ports maps neighbour name → local port number (1-based).
	ports map[string]uint64
	// portOrder lists neighbours in attachment order.
	portOrder []string
	// out holds the egress link of every port, aligned with portOrder.
	out []*Link
}

// Port returns the local port number facing the given neighbour, or an
// error if there is no attached link to it.
func (n *Node) Port(neighbor string) (uint64, error) {
	p, ok := n.ports[neighbor]
	if !ok {
		return 0, fmt.Errorf("topo: node %q has no port toward %q", n.Name, neighbor)
	}
	return p, nil
}

// Neighbors returns the neighbour names in port order.
func (n *Node) Neighbors() []string {
	out := make([]string, len(n.portOrder))
	copy(out, n.portOrder)
	return out
}

// Degree returns the number of attached links.
func (n *Node) Degree() int { return len(n.portOrder) }

// LinkAttrs carries the traffic-engineering attributes of a link.
type LinkAttrs struct {
	// CapacityMbps is the link's transmission capacity in Mbit/s.
	CapacityMbps float64
	// DelayMs is the one-way propagation delay in milliseconds.
	DelayMs float64
}

// Link is one direction of a connection between two adjacent nodes.
type Link struct {
	// From and To are the endpoints of this direction.
	From, To string
	// Attrs are the TE attributes (per direction).
	Attrs LinkAttrs

	// id and index are set when the link joins a topology.
	id    string
	index int
}

// ID returns the canonical directed-link identifier "from->to".
func (l Link) ID() string {
	if l.id != "" {
		return l.id
	}
	return l.From + "->" + l.To
}

// Index returns the link's dense index within its topology: directed links
// are numbered 0, 1, … in the order they were added, so per-link state can
// live in slices instead of ID-keyed maps.
func (l Link) Index() int { return l.index }

// Topology is a directed multigraph-free network graph. It is built once
// and then treated as immutable by the routing and emulation layers.
type Topology struct {
	nodes map[string]*Node
	order []string
	// links holds every directed link at its Index.
	links []*Link
	// sorted caches the ID-sorted view Links hands out; AddAsymLink drops
	// it. An atomic pointer, so concurrent readers of a finished topology
	// may fill it without a lock (they compute the same slice).
	sorted atomic.Pointer[[]*Link]
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{nodes: make(map[string]*Node)}
}

// AddNode adds a node. It fails on duplicate names.
func (t *Topology) AddNode(name string, kind NodeKind) error {
	if name == "" {
		return errors.New("topo: empty node name")
	}
	if _, ok := t.nodes[name]; ok {
		return fmt.Errorf("topo: duplicate node %q", name)
	}
	t.nodes[name] = &Node{Name: name, Kind: kind, ports: make(map[string]uint64)}
	t.order = append(t.order, name)
	return nil
}

// AddLink connects a and b bidirectionally with the same attributes in both
// directions, assigning the next free port number on each side.
func (t *Topology) AddLink(a, b string, attrs LinkAttrs) error {
	return t.AddAsymLink(a, b, attrs, attrs)
}

// AddAsymLink connects a and b bidirectionally with distinct per-direction
// attributes (the VirtualBox testbed caps directions independently).
func (t *Topology) AddAsymLink(a, b string, ab, ba LinkAttrs) error {
	na, ok := t.nodes[a]
	if !ok {
		return fmt.Errorf("topo: unknown node %q", a)
	}
	nb, ok := t.nodes[b]
	if !ok {
		return fmt.Errorf("topo: unknown node %q", b)
	}
	if a == b {
		return fmt.Errorf("topo: self link on %q", a)
	}
	if _, dup := na.ports[b]; dup {
		return fmt.Errorf("topo: link %s-%s already exists", a, b)
	}
	if ab.CapacityMbps <= 0 || ba.CapacityMbps <= 0 {
		return fmt.Errorf("topo: link %s-%s needs positive capacity", a, b)
	}
	if ab.DelayMs < 0 || ba.DelayMs < 0 {
		return fmt.Errorf("topo: link %s-%s has negative delay", a, b)
	}
	na.ports[b] = uint64(len(na.portOrder) + 1)
	na.portOrder = append(na.portOrder, b)
	nb.ports[a] = uint64(len(nb.portOrder) + 1)
	nb.portOrder = append(nb.portOrder, a)
	lab := &Link{From: a, To: b, Attrs: ab, id: a + "->" + b, index: len(t.links)}
	lba := &Link{From: b, To: a, Attrs: ba, id: b + "->" + a, index: len(t.links) + 1}
	na.out = append(na.out, lab)
	nb.out = append(nb.out, lba)
	t.links = append(t.links, lab, lba)
	t.sorted.Store(nil)
	return nil
}

// Node returns the named node, or an error.
func (t *Topology) Node(name string) (*Node, error) {
	n, ok := t.nodes[name]
	if !ok {
		return nil, fmt.Errorf("topo: unknown node %q", name)
	}
	return n, nil
}

// HasNode reports whether the named node exists.
func (t *Topology) HasNode(name string) bool {
	_, ok := t.nodes[name]
	return ok
}

// Nodes returns all node names in insertion order.
func (t *Topology) Nodes() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// NodesOfKind returns the names of all nodes with the given role, in
// insertion order.
func (t *Topology) NodesOfKind(kind NodeKind) []string {
	var out []string
	for _, name := range t.order {
		if t.nodes[name].Kind == kind {
			out = append(out, name)
		}
	}
	return out
}

// Link returns the directed link from one node to an adjacent one.
func (t *Topology) Link(from, to string) (*Link, error) {
	if n, ok := t.nodes[from]; ok {
		if port, ok := n.ports[to]; ok {
			return n.out[port-1], nil
		}
	}
	return nil, fmt.Errorf("topo: no link %s->%s", from, to)
}

// Links returns all directed links sorted by ID (deterministic order for
// telemetry and tests). The slice is the caller's own.
func (t *Topology) Links() []*Link {
	sorted := t.sorted.Load()
	if sorted == nil {
		s := make([]*Link, len(t.links))
		copy(s, t.links)
		sort.Slice(s, func(i, j int) bool { return s[i].id < s[j].id })
		sorted = &s
		t.sorted.Store(sorted)
	}
	out := make([]*Link, len(*sorted))
	copy(out, *sorted)
	return out
}

// Path is an ordered node sequence from source to destination.
type Path struct {
	// Nodes lists the node names, endpoints included.
	Nodes []string
}

// String renders the path as "a-b-c", the notation the paper uses
// (e.g. "MIA-SAO-AMS").
func (p Path) String() string {
	s := ""
	for i, n := range p.Nodes {
		if i > 0 {
			s += "-"
		}
		s += n
	}
	return s
}

// Len returns the number of links in the path.
func (p Path) Len() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Equal reports whether two paths traverse the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	return true
}

// Links resolves the path to its directed links.
func (t *Topology) PathLinks(p Path) ([]*Link, error) {
	if len(p.Nodes) < 2 {
		return nil, fmt.Errorf("topo: path %v too short", p.Nodes)
	}
	out := make([]*Link, 0, p.Len())
	for i := 0; i+1 < len(p.Nodes); i++ {
		l, err := t.Link(p.Nodes[i], p.Nodes[i+1])
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// PathDelayMs sums the propagation delays along the path.
func (t *Topology) PathDelayMs(p Path) (float64, error) {
	links, err := t.PathLinks(p)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, l := range links {
		total += l.Attrs.DelayMs
	}
	return total, nil
}

// PathBottleneckMbps returns the minimum capacity along the path.
func (t *Topology) PathBottleneckMbps(p Path) (float64, error) {
	links, err := t.PathLinks(p)
	if err != nil {
		return 0, err
	}
	bott := links[0].Attrs.CapacityMbps
	for _, l := range links[1:] {
		if l.Attrs.CapacityMbps < bott {
			bott = l.Attrs.CapacityMbps
		}
	}
	return bott, nil
}

// PortsAlong maps a path onto per-node output ports: for every node except
// the final one, the port is the local number of the link toward the next
// node. The result feeds polka.Domain.EncodePath directly.
func (t *Topology) PortsAlong(p Path) ([]uint64, error) {
	if len(p.Nodes) < 2 {
		return nil, fmt.Errorf("topo: path %v too short", p.Nodes)
	}
	out := make([]uint64, len(p.Nodes)-1)
	for i := 0; i+1 < len(p.Nodes); i++ {
		n, err := t.Node(p.Nodes[i])
		if err != nil {
			return nil, err
		}
		port, err := n.Port(p.Nodes[i+1])
		if err != nil {
			return nil, err
		}
		out[i] = port
	}
	return out, nil
}

// MaxPort returns the highest port number used by any node — the value a
// PolKA domain needs to size its node identifiers.
func (t *Topology) MaxPort() uint64 {
	var m uint64
	for _, name := range t.order {
		if d := uint64(t.nodes[name].Degree()); d > m {
			m = d
		}
	}
	return m
}
