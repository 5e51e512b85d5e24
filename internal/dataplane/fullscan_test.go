package dataplane

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/polka"
	"repro/internal/topo"
)

// runFullScan is the event loop runFull replaced, kept as its reference:
// every step scans all links for the earliest arrival, then scans them
// again in index order popping whatever is due. It is O(links) per step
// and obviously right; the due-heap core must reproduce it exactly — the
// delivered stream, every counter, and the number of steps.
func runFullScan(ctx context.Context, e *Engine) (Stats, error) {
	fs := e.full
	for i, ns := range e.nodes {
		batch := ns.queue
		ns.queue = nil
		for _, pkt := range batch {
			e.forwardFull(i, ns, pkt, fs.now)
		}
	}
	e.pending = 0
	for fs.inFlight > 0 {
		select {
		case <-ctx.Done():
			return e.stats, ctx.Err()
		default:
		}
		e.stats.Rounds++
		var next link.Time
		found := false
		for i := range fs.links {
			if t, ok := fs.links[i].path.Next(); ok && (!found || t < next) {
				next, found = t, true
			}
		}
		if !found {
			break
		}
		if next > fs.now {
			fs.now = next
		}
		for i := range fs.links {
			l := &fs.links[i]
			for {
				if n := e.inFlight(); n > e.cfg.MaxInFlight {
					return e.stats, e.errCap(n)
				}
				f, ok := l.path.Pop(fs.now)
				if !ok {
					break
				}
				e.arriveFull(l, f)
			}
		}
	}
	return e.stats, nil
}

// cancelAfter is a context that reports cancellation from the n-th poll of
// Done on: both event loops poll once per step, so it stops them after the
// same number of steps.
type cancelAfter struct {
	context.Context
	polls int
	done  chan struct{}
}

func newCancelAfter(polls int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), polls: polls, done: make(chan struct{})}
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.polls--; c.polls == 0 {
		close(c.done)
	}
	return c.done
}

func (c *cancelAfter) Err() error { return context.Canceled }

// fullSnapshot is everything observable about a full-mode engine: the
// delivered stream with arrival instants, the aggregate counters with the
// step count, the clock, and every node's and link's counters (sojourn
// samples included).
type fullSnapshot struct {
	Delivered []deliveredKey
	Stats     Stats
	Now       link.Time
	Nodes     map[string]NodeStats
	Links     map[string]link.Stats
}

func snapshotFull(t *testing.T, e *Engine) fullSnapshot {
	t.Helper()
	s := fullSnapshot{
		Delivered: deliveredKeys(e.Delivered()),
		Stats:     e.Stats(),
		Now:       e.VirtualNow(),
		Nodes:     map[string]NodeStats{},
		Links:     map[string]link.Stats{},
	}
	for _, name := range e.Domain().Nodes() {
		ns, err := e.NodeStats(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Nodes[name] = ns
	}
	for i := range e.full.links {
		l := &e.full.links[i]
		from, to := e.nodes[l.src].name, e.nodes[l.src].neighbor[l.port]
		ls, err := e.LinkStats(from, to)
		if err != nil {
			t.Fatal(err)
		}
		s.Links[from+"->"+to] = ls
	}
	return s
}

// diffSnapshots names the first part of two snapshots that differs.
func diffSnapshots(a, b fullSnapshot) string {
	switch {
	case a.Stats != b.Stats:
		return fmt.Sprintf("stats:\n  %+v\n  %+v", a.Stats, b.Stats)
	case a.Now != b.Now:
		return fmt.Sprintf("virtual clock: %d vs %d", a.Now, b.Now)
	case !reflect.DeepEqual(a.Delivered, b.Delivered):
		for i := range a.Delivered {
			if i >= len(b.Delivered) || a.Delivered[i] != b.Delivered[i] {
				return fmt.Sprintf("delivered[%d] of %d/%d:\n  %+v", i, len(a.Delivered), len(b.Delivered), a.Delivered[i])
			}
		}
		return fmt.Sprintf("delivered %d vs %d packets", len(a.Delivered), len(b.Delivered))
	case !reflect.DeepEqual(a.Nodes, b.Nodes):
		return "per-node counters"
	case !reflect.DeepEqual(a.Links, b.Links):
		return "per-link counters"
	}
	return ""
}

// assertFullIdle checks that Reset left nothing behind: no arrival on any
// wire, no arena slot, no due-heap entry, no dirty link.
func assertFullIdle(t *testing.T, e *Engine) {
	t.Helper()
	fs := e.full
	if len(fs.due)+len(fs.dirty)+len(fs.arena)+len(fs.free)+fs.inFlight != 0 || fs.now != 0 || fs.pass != 0 || fs.cursor != -1 {
		t.Fatalf("Reset left due=%d dirty=%d arena=%d free=%d inFlight=%d now=%d pass=%d cursor=%d",
			len(fs.due), len(fs.dirty), len(fs.arena), len(fs.free), fs.inFlight, fs.now, fs.pass, fs.cursor)
	}
	for i := range fs.links {
		l := &fs.links[i]
		if l.pos != -1 || l.dirty || l.path.Pending() != 0 || !reflect.DeepEqual(l.path.Stats(), link.NewFullPath(l.path.Config()).Stats()) {
			t.Fatalf("Reset left link %d pos=%d dirty=%v pending=%d stats=%+v", i, l.pos, l.dirty, l.path.Pending(), l.path.Stats())
		}
	}
}

// assertDueHeapDescribesLinks checks the event core's invariant between
// steps and after an aborted one: the due heap holds exactly the links
// with a frame on the wire, each keyed by its earliest arrival, in heap
// order; and every such link is on the dirty list.
func assertDueHeapDescribesLinks(t *testing.T, e *Engine) {
	t.Helper()
	fs := e.full
	held := 0
	for i := range fs.links {
		l := &fs.links[i]
		at, ok := l.path.Next()
		if !ok {
			if l.pos != -1 {
				t.Fatalf("idle link %d sits in the due heap at %d", i, l.pos)
			}
			continue
		}
		held++
		if l.pos < 0 || fs.due[l.pos] != int32(i) || l.dueAt != at || !l.dirty {
			t.Fatalf("link %d holds a frame for %d: pos=%d dueAt=%d dirty=%v", i, at, l.pos, l.dueAt, l.dirty)
		}
	}
	if held != len(fs.due) {
		t.Fatalf("%d links hold frames, the due heap %d entries", held, len(fs.due))
	}
	for i := 1; i < len(fs.due); i++ {
		if fs.dueLess(fs.due[i], fs.due[(i-1)/2]) {
			t.Fatalf("due heap out of order at %d", i)
		}
	}
}

// scanTemplates are the link models the differential test sweeps.
var scanTemplates = []struct {
	name string
	cfg  link.FullConfig
}{
	{"transparent", link.FullConfig{RateMbps: -1, DelayMs: -1}},
	{"topo-inherited", link.FullConfig{}},
	{"rate-limited-queue", link.FullConfig{RateMbps: 8, QueuePkts: 3}},
	{"bernoulli", link.FullConfig{Loss: link.Bernoulli(0.15)}},
	{"gilbert-elliott", link.FullConfig{RateMbps: -1, Loss: link.GilbertElliott(0.2, 0.3, 0.01, 0.7)}},
	{"reorder", link.FullConfig{DelayMs: 1, ReorderProb: 0.4, ReorderWindowMs: 3}},
}

// scanRoutes encodes one mode's route between every ordered host pair of
// tp that has one: unicast and PoT along the shortest path, multicast
// along the union of the shortest paths to the pair's target and to the
// next host (shortest paths from one source never form a cycle). Routes
// depend on the topology and the domain only, so every engine over them
// can inject these.
func scanRoutes(t *testing.T, e *Engine, tp *topo.Topology, mode Mode) []*Route {
	t.Helper()
	hosts := tp.NodesOfKind(topo.Host)
	port := func(node, toward string) uint {
		n, err := tp.Node(node)
		if err != nil {
			t.Fatal(err)
		}
		p, err := n.Port(toward)
		if err != nil {
			t.Fatal(err)
		}
		return uint(p)
	}
	var routes []*Route
	for i, src := range hosts {
		for j, dst := range hosts {
			p, err := tp.ShortestPath(src, dst, topo.ByHops)
			if i == j || err != nil || len(p.Nodes) < 3 {
				continue
			}
			var r *Route
			switch mode {
			case Unicast:
				r, err = e.UnicastRoute(p)
			case PoT:
				r, err = e.PoTRoute(p, int64(i*len(hosts)+j))
			case Multicast:
				sets := map[string]uint64{}
				for _, q := range []topo.Path{p, mustPath(tp, src, hosts[(j+1)%len(hosts)])} {
					for k := 1; k+1 < len(q.Nodes); k++ {
						m, err := polka.PortSet(port(q.Nodes[k], q.Nodes[k+1]))
						if err != nil {
							t.Fatal(err)
						}
						sets[q.Nodes[k]] |= m
					}
				}
				r, err = e.MulticastRoute(p.Nodes[1], sets)
			}
			if err != nil {
				t.Fatalf("%v route %v: %v", mode, p, err)
			}
			routes = append(routes, r)
		}
	}
	return routes
}

// scanInject injects one to four packets per route, of seeded sizes so
// that arrivals spread over many instants.
func scanInject(t *testing.T, e *Engine, routes []*Route, seed int64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	for _, r := range routes {
		for n := 1 + rnd.Intn(4); n > 0; n-- {
			if _, err := e.Inject(r.Inject, r.NewPacket(64+rnd.Intn(1400))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// mustPath is the shortest path src→dst, or the empty path where dst is
// src or unreachable.
func mustPath(tp *topo.Topology, src, dst string) topo.Path {
	p, err := tp.ShortestPath(src, dst, topo.ByHops)
	if err != nil || src == dst {
		return topo.Path{}
	}
	return p
}

// TestDueHeapMatchesLinkScan is the event core's differential test: over
// randomized topologies × link models × forwarding modes, the due-heap
// loop and the two-pass link scan agree on everything observable — first
// stopped after a few steps, then resumed to completion, then replayed
// after Reset.
func TestDueHeapMatchesLinkScan(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tp, err := topo.RandomTopology(topo.RandomConfig{Cores: 8, ExtraLinks: 6, Hosts: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		domain, err := polka.NewMultipathDomain(tp.NodesOfKind(topo.Core), tp.MaxPort())
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{Unicast, Multicast, PoT} {
			var routes []*Route
			for _, tmpl := range scanTemplates {
				name := fmt.Sprintf("seed%d/%s/%v", seed, tmpl.name, mode)
				build := func() *Engine {
					e, err := New(tp, Config{Domain: domain, LinkMode: LinkFull, Link: tmpl.cfg, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if routes == nil {
						routes = scanRoutes(t, e, tp, mode)
					}
					scanInject(t, e, routes, seed)
					return e
				}
				heap, scan := build(), build()
				check := func(stage string, heapErr, scanErr error) fullSnapshot {
					t.Helper()
					if heapErr != scanErr {
						t.Fatalf("%s %s: heap core returned %v, link scan %v", name, stage, heapErr, scanErr)
					}
					assertDueHeapDescribesLinks(t, heap)
					got, want := snapshotFull(t, heap), snapshotFull(t, scan)
					if d := diffSnapshots(got, want); d != "" {
						t.Fatalf("%s %s: heap core and link scan diverge on %s", name, stage, d)
					}
					return got
				}
				_, heapErr := heap.Run(newCancelAfter(2))
				_, scanErr := runFullScan(newCancelAfter(2), scan)
				if check("stopped after one step", heapErr, scanErr); heapErr != context.Canceled {
					t.Fatalf("%s: workload finished within one step", name)
				}
				_, heapErr = heap.Run(context.Background())
				_, scanErr = runFullScan(context.Background(), scan)
				first := check("resumed", heapErr, scanErr)
				if first.Stats.Delivered == 0 || first.Stats.Rounds < 2 {
					t.Fatalf("%s: workload too small to tell: %+v", name, first.Stats)
				}

				heap.Reset()
				assertFullIdle(t, heap)
				scanInject(t, heap, routes, seed)
				if _, err := heap.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if d := diffSnapshots(snapshotFull(t, heap), first); d != "" {
					t.Fatalf("%s: replay after Reset diverges on %s", name, d)
				}
			}
		}
	}
}

// TestDueHeapBehindTheCursor pins the step rule on transparent links,
// where a whole path happens at one instant. Links are indexed by source
// node, so a path through nodes of increasing index lands every frame on a
// link the step has yet to reach and finishes in one step; the same path
// backwards lands every frame behind the link being drained, and each hop
// waits for a step of its own — as it did when a step was a scan.
func TestDueHeapBehindTheCursor(t *testing.T) {
	tp := topo.New()
	for _, n := range []struct {
		name string
		kind topo.NodeKind
	}{{"a", topo.Core}, {"b", topo.Core}, {"c", topo.Core}, {"h1", topo.Host}, {"h2", topo.Host}} {
		if err := tp.AddNode(n.name, n.kind); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"h1", "a"}, {"a", "b"}, {"b", "c"}, {"c", "h2"}} {
		if err := tp.AddLink(l[0], l[1], topo.LinkAttrs{CapacityMbps: 10, DelayMs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	domain, err := polka.NewDomain([]string{"a", "b", "c"}, tp.MaxPort())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path   []string
		rounds uint64
	}{
		{[]string{"h1", "a", "b", "c", "h2"}, 1},
		{[]string{"h2", "c", "b", "a", "h1"}, 3},
	} {
		var got [2]Stats
		for i, run := range []func(context.Context, *Engine) (Stats, error){
			func(ctx context.Context, e *Engine) (Stats, error) { return e.Run(ctx) },
			runFullScan,
		} {
			e, err := New(tp, Config{Domain: domain, LinkMode: LinkFull, Link: transparentLink()})
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.UnicastRoute(topo.Path{Nodes: c.path})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.InjectBatch(r.Inject, r.NewPackets(2, 100)); err != nil {
				t.Fatal(err)
			}
			if got[i], err = run(context.Background(), e); err != nil {
				t.Fatal(err)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("%v: heap core %+v, link scan %+v", c.path, got[0], got[1])
		}
		if got[0].Rounds != c.rounds || got[0].Delivered != 2 {
			t.Fatalf("%v: %d steps, %d delivered; want %d steps, 2 delivered", c.path, got[0].Rounds, got[0].Delivered, c.rounds)
		}
	}
}

// TestFullModeSteadyStateAllocatesNothing pins the full tier's allocation
// contract: Reset keeps every array an op grew — node queues, arena, due
// heap, each touched link's buffers and random stream — so a warm engine
// stamps, injects, runs and resets without allocating, drops included.
func TestFullModeSteadyStateAllocatesNothing(t *testing.T) {
	e := labEngine(t, Config{LinkMode: LinkFull, Seed: 1,
		Link: link.FullConfig{QueuePkts: 32, Loss: link.Bernoulli(0.05)}})
	var routes []*Route
	for _, p := range []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()} {
		r, err := e.UnicastRoute(p)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, r)
	}
	bufs := make([][]Packet, len(routes))
	var stats Stats
	op := func() {
		for i, r := range routes {
			bufs[i] = r.AppendPackets(bufs[i][:0], 64, 1500)
			if err := e.InjectBatch(r.Inject, bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if stats, err = e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		e.Reset()
	}
	op() // grow the buffers once
	if stats.Delivered == 0 || stats.QueueDrops == 0 || stats.LossDrops == 0 {
		t.Fatalf("the op should deliver, tail-drop and lose: %+v", stats)
	}
	if n := testing.AllocsPerRun(10, op); n != 0 {
		t.Fatalf("warm inject+Run+Reset allocates %v times per op", n)
	}
}

// TestLinkStatsSnapshotSurvivesReset pins that Engine.LinkStats hands out
// the link's sojourn samples by copy: Reset truncates the link's own array
// and the next op overwrites it.
func TestLinkStatsSnapshotSurvivesReset(t *testing.T) {
	e := labEngine(t, Config{LinkMode: LinkFull})
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	play := func(size int) link.Stats {
		if err := e.InjectBatch(r.Inject, r.NewPackets(200, size)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		ls, err := e.LinkStats(r.Hops[0].Node, r.Hops[1].Node)
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	burst := play(1500)
	p99, max := burst.QueueDelayP99Ms(), burst.QueueDelayMaxMs()
	if p99 <= 0 || max < p99 {
		t.Fatalf("a burst of 1500 B frames queued for p99 %v max %v ms", p99, max)
	}
	e.Reset()
	if small := play(100); small.QueueDelayMaxMs() >= p99/2 {
		t.Fatalf("a burst of 100 B frames queued for %v ms, the 1500 B one for %v", small.QueueDelayMaxMs(), max)
	}
	if burst.QueueDelayP99Ms() != p99 || burst.QueueDelayMaxMs() != max {
		t.Fatalf("snapshot changed under Reset and re-run: p99 %v → %v, max %v → %v",
			p99, burst.QueueDelayP99Ms(), max, burst.QueueDelayMaxMs())
	}
}
