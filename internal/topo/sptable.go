package topo

import (
	"container/heap"
	"fmt"
	"sync"
)

// SPTable memoizes single-source shortest-path trees over one topology:
// the first query from a source runs a full Dijkstra and caches the
// predecessor tree; every further query from that source reconstructs
// its path in O(path length). Scenario generators route many flows over
// one large (thousand-node) graph, and with table reuse the whole
// traffic matrix costs one Dijkstra per distinct source instead of one
// per flow — the difference between sub-second and minutes at fat-tree
// scale. An SPTable is safe for concurrent use and assumes the topology
// is no longer mutated (the package-wide contract: a Topology is built
// once, then immutable).
type SPTable struct {
	t *Topology
	w Weight

	mu    sync.Mutex
	trees map[string]*spTree
}

// spTree is one cached single-source Dijkstra result.
type spTree struct {
	prev map[string]string
	dist map[string]float64
}

// SPTable returns a fresh shortest-path table over the topology under
// the given metric.
func (t *Topology) SPTable(w Weight) *SPTable {
	return &SPTable{t: t, w: w, trees: make(map[string]*spTree)}
}

// tree returns the cached SSSP tree for src, computing it on first use.
func (st *SPTable) tree(src string) (*spTree, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if tr, ok := st.trees[src]; ok {
		return tr, nil
	}
	if !st.t.HasNode(src) {
		return nil, fmt.Errorf("topo: unknown source %q", src)
	}
	tr := &spTree{
		prev: make(map[string]string),
		dist: map[string]float64{src: 0},
	}
	done := make(map[string]bool)
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		n := st.t.nodes[it.node]
		for port, nb := range n.portOrder {
			if done[nb] {
				continue
			}
			l := n.out[port]
			nd := it.dist + st.w.cost(l)
			if cur, seen := tr.dist[nb]; !seen || nd < cur {
				tr.dist[nb] = nd
				tr.prev[nb] = it.node
				heap.Push(q, pqItem{node: nb, dist: nd})
			}
		}
	}
	st.trees[src] = tr
	return tr, nil
}

// Path returns the cached-tree shortest path from src to dst.
func (st *SPTable) Path(src, dst string) (Path, error) {
	tr, err := st.tree(src)
	if err != nil {
		return Path{}, err
	}
	if !st.t.HasNode(dst) {
		return Path{}, fmt.Errorf("topo: unknown destination %q", dst)
	}
	if dst != src {
		if _, ok := tr.prev[dst]; !ok {
			return Path{}, fmt.Errorf("topo: no path %s -> %s", src, dst)
		}
	}
	var rev []string
	for at := dst; ; {
		rev = append(rev, at)
		if at == src {
			break
		}
		at = tr.prev[at]
	}
	nodes := make([]string, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return Path{Nodes: nodes}, nil
}

// Dist returns the total path cost from src to dst under the table's
// metric.
func (st *SPTable) Dist(src, dst string) (float64, error) {
	tr, err := st.tree(src)
	if err != nil {
		return 0, err
	}
	d, ok := tr.dist[dst]
	if !ok {
		return 0, fmt.Errorf("topo: no path %s -> %s", src, dst)
	}
	return d, nil
}

// ReachableFrom returns the number of nodes reachable from src,
// src included — the connectivity check the topology fuzz targets
// assert against the full node count.
func (st *SPTable) ReachableFrom(src string) (int, error) {
	tr, err := st.tree(src)
	if err != nil {
		return 0, err
	}
	return len(tr.dist), nil
}
