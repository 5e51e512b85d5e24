package topo

import (
	"container/heap"
	"fmt"
	"math"
)

// Weight selects the link metric path computation minimizes.
type Weight int

// Available path metrics.
const (
	// ByDelay minimizes the sum of link propagation delays.
	ByDelay Weight = iota
	// ByHops minimizes the link count.
	ByHops
	// ByInverseCapacity prefers fat links: each link costs 1/capacity.
	ByInverseCapacity
)

func (w Weight) cost(l *Link) float64 {
	switch w {
	case ByDelay:
		return l.Attrs.DelayMs
	case ByHops:
		return 1
	case ByInverseCapacity:
		return 1 / l.Attrs.CapacityMbps
	default:
		panic(fmt.Sprintf("topo: unknown weight %d", int(w)))
	}
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node string
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath runs Dijkstra from src to dst under the given metric,
// optionally forbidding a set of nodes and directed links (needed by Yen's
// algorithm and by failure-recovery what-if queries). banned maps node
// names to true; bannedLinks maps directed link IDs ("a->b") to true.
// It returns the path and its total cost.
func (t *Topology) shortestPathFiltered(src, dst string, w Weight, banned map[string]bool, bannedLinks map[string]bool) (Path, float64, error) {
	if !t.HasNode(src) {
		return Path{}, 0, fmt.Errorf("topo: unknown source %q", src)
	}
	if !t.HasNode(dst) {
		return Path{}, 0, fmt.Errorf("topo: unknown destination %q", dst)
	}
	dist := map[string]float64{src: 0}
	prev := map[string]string{}
	done := map[string]bool{}
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == dst {
			break
		}
		n := t.nodes[it.node]
		for port, nb := range n.portOrder {
			if banned[nb] || done[nb] {
				continue
			}
			l := n.out[port]
			if bannedLinks[l.ID()] {
				continue
			}
			nd := it.dist + w.cost(l)
			if cur, seen := dist[nb]; !seen || nd < cur {
				dist[nb] = nd
				prev[nb] = it.node
				heap.Push(q, pqItem{node: nb, dist: nd})
			}
		}
	}
	d, ok := dist[dst]
	if !ok || !done[dst] {
		return Path{}, math.Inf(1), fmt.Errorf("topo: no path %s -> %s", src, dst)
	}
	// Reconstruct.
	var rev []string
	for at := dst; ; {
		rev = append(rev, at)
		if at == src {
			break
		}
		at = prev[at]
	}
	nodes := make([]string, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return Path{Nodes: nodes}, d, nil
}

// ShortestPath returns the minimum-cost path from src to dst under the
// given metric.
func (t *Topology) ShortestPath(src, dst string, w Weight) (Path, error) {
	p, _, err := t.shortestPathFiltered(src, dst, w, nil, nil)
	return p, err
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// increasing cost order, using Yen's algorithm. These are the candidate
// paths the framework provisions as PolKA tunnels and among which the
// optimizer allocates flows.
func (t *Topology) KShortestPaths(src, dst string, k int, w Weight) ([]Path, error) {
	if k < 1 {
		return nil, fmt.Errorf("topo: k must be ≥ 1, got %d", k)
	}
	first, err := t.ShortestPath(src, dst, w)
	if err != nil {
		return nil, err
	}
	accepted := []Path{first}
	type candidate struct {
		path Path
		cost float64
	}
	var candidates []candidate

	pathCost := func(p Path) float64 {
		links, err := t.PathLinks(p)
		if err != nil {
			return math.Inf(1)
		}
		c := 0.0
		for _, l := range links {
			c += w.cost(l)
		}
		return c
	}

	for len(accepted) < k {
		last := accepted[len(accepted)-1]
		// Each node of the previous path (except the final one) is a spur.
		for i := 0; i < len(last.Nodes)-1; i++ {
			spurNode := last.Nodes[i]
			rootPath := last.Nodes[:i+1]

			bannedLinks := map[string]bool{}
			for _, p := range accepted {
				if len(p.Nodes) > i && samePrefix(p.Nodes, rootPath) {
					bannedLinks[p.Nodes[i]+"->"+p.Nodes[i+1]] = true
				}
			}
			bannedNodes := map[string]bool{}
			for _, n := range rootPath[:len(rootPath)-1] {
				bannedNodes[n] = true
			}

			spurPath, _, err := t.shortestPathFiltered(spurNode, dst, w, bannedNodes, bannedLinks)
			if err != nil {
				continue
			}
			total := append(append([]string{}, rootPath...), spurPath.Nodes[1:]...)
			cand := Path{Nodes: total}
			dup := false
			for _, c := range candidates {
				if c.path.Equal(cand) {
					dup = true
					break
				}
			}
			for _, a := range accepted {
				if a.Equal(cand) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, candidate{path: cand, cost: pathCost(cand)})
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Pop the cheapest candidate.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].cost < candidates[best].cost {
				best = i
			}
		}
		accepted = append(accepted, candidates[best].path)
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return accepted, nil
}

func samePrefix(nodes, prefix []string) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}
