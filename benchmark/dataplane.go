package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/gf2"
	"repro/internal/link"
	"repro/internal/polka"
	"repro/internal/topo"
)

// dpSpec describes one packet-engine workload. The op is the same on all
// three: stamp every flow's packets, inject one batch per ingress switch,
// Run to completion, Reset.
type dpSpec struct {
	// fatTreeK is the fat-tree arity; 0 selects the Global P4 Lab with
	// its three tunnels as the flows.
	fatTreeK int
	// perPod is the number of flows every fat-tree pod sources, and
	// sinks; see fatTreeFlows.
	perPod int
	// perFlow packets are sent per flow per op; flow i's are
	// size − sizeStep·i bytes long.
	perFlow, size, sizeStep int
	// mixed sends half the flows as contiguous bursts and interleaves the
	// other half round-robin inside each ingress batch; otherwise every
	// flow is one burst.
	mixed bool
	// engine is the engine configuration; Domain and Seed are filled in.
	engine dataplane.Config
}

// stampRun is n consecutive packets of one route inside an ingress batch.
type stampRun struct {
	route   *dataplane.Route
	n, size int
}

// ingress is the batch one ingress switch receives per op.
type ingress struct {
	node string
	plan []stampRun
	buf  []dataplane.Packet
}

type dpSystem struct {
	traced
	spec   dpSpec
	topo   *topo.Topology
	engine *dataplane.Engine
	routes []*dataplane.Route
	// egress maps a route, by the first byte of the routeID slice all its
	// packets share, to the host its path ends at.
	egress  map[*byte]string
	batches []*ingress
	pkts    int // packets per op

	have     bool
	first    dataplane.Stats
	firstNow link.Time
}

// ftFlow is one fat-tree flow: its end hosts as (pod, edge, host) and the
// round it was drawn in.
type ftFlow struct {
	src, dst [3]int
	round    int
}

// topo.FatTree's positional node names.
func ftHost(at [3]int) string { return fmt.Sprintf("pod%d-edge%d-h%d", at[0], at[1], at[2]) }
func ftEdge(at [3]int) string { return fmt.Sprintf("pod%d-edge%d", at[0], at[1]) }
func ftAgg(pod, j int) string { return fmt.Sprintf("pod%d-agg%d", pod, j) }
func ftCore(i int) string     { return fmt.Sprintf("core%d", i) }

// fatTreeFlows draws perPod·k flows as permutation traffic, in perPod
// rounds: in round r every pod sends one flow to the pod shift_r further
// on (a seeded shift), leaving from the (r mod k/2)-th of a seeded choice
// of its edge switches, taken in order, and arriving likewise; hosts are
// seeded. Every pod sources and sinks exactly perPod flows on every seed.
func fatTreeFlows(rnd *rand.Rand, k, perPod int) []ftFlow {
	half := k / 2
	choose := func() [][]int {
		edges := make([][]int, k)
		for p := range edges {
			edges[p] = rnd.Perm(half)[:min(perPod, half)]
			sort.Ints(edges[p])
		}
		return edges
	}
	from, to := choose(), choose()
	var flows []ftFlow
	for r := 0; r < perPod; r++ {
		shift := 1 + rnd.Intn(k-1)
		for p := 0; p < k; p++ {
			q := (p + shift) % k
			flows = append(flows, ftFlow{
				src:   [3]int{p, from[p][r%len(from[p])], rnd.Intn(half)},
				dst:   [3]int{q, to[q][r%len(to[q])], rnd.Intn(half)},
				round: r,
			})
		}
	}
	return flows
}

// setup builds topology, domain, engine and routes from nothing.
func (spec dpSpec) setup(seed int64, tr *tracer) (system, error) {
	s := &dpSystem{spec: spec, egress: map[*byte]string{}}
	s.tr = tr
	var paths []topo.Path
	var err error
	if spec.fatTreeK > 0 {
		sp := tr.begin("topo.fattree_build")
		s.topo, err = topo.FatTree(topo.DefaultFatTreeConfig(spec.fatTreeK))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		// The driver picks each flow's equal-cost path itself: round r
		// climbs through aggregation switch r mod k/2 of both pods and the
		// core above it in column ⌊r/(k/2)⌋ mod k/2, so every switch and
		// link carries the same number of flows on every seed (none shared
		// when perPod ≤ k/2) and seeds move the flows to other switches —
		// other nodeIDs, routeIDs, residues — without changing how much
		// work an op is. topo.SPTable breaks ties as its heap falls, which
		// made ops ±3 % dearer or cheaper from seed to seed; it is asked
		// for every pair all the same, to time it and to check that the
		// driver's path is a shortest one.
		half := spec.fatTreeK / 2
		table := s.topo.SPTable(topo.ByHops)
		for _, f := range fatTreeFlows(rand.New(rand.NewSource(seed)), spec.fatTreeK, spec.perPod) {
			a, c := f.round%half, f.round/half%half
			p := topo.Path{Nodes: []string{ftHost(f.src), ftEdge(f.src), ftAgg(f.src[0], a),
				ftCore(a*half + c), ftAgg(f.dst[0], a), ftEdge(f.dst), ftHost(f.dst)}}
			sp := tr.begin("topo.sptable_path")
			shortest, err := table.Path(p.Nodes[0], p.Nodes[len(p.Nodes)-1])
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if len(shortest.Nodes) != len(p.Nodes) {
				return nil, fmt.Errorf("%v is not a shortest path: SPTable finds %v", p, shortest)
			}
			paths = append(paths, p)
		}
	} else {
		s.topo, err = topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
		if err != nil {
			return nil, err
		}
		paths = []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()}
	}

	routers := append(s.topo.NodesOfKind(topo.Edge), s.topo.NodesOfKind(topo.Core)...)
	sp := tr.begin("polka.domain")
	domain, err := polka.NewDomain(routers, s.topo.MaxPort())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cfg := spec.engine
	cfg.Domain = domain
	cfg.Workers = 1
	cfg.Seed = seed
	sp = tr.begin("dataplane.new")
	s.engine, err = dataplane.New(s.topo, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	for _, p := range paths {
		sp := tr.begin("dataplane.route_encode")
		r, err := s.engine.UnicastRoute(p)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.routes = append(s.routes, r)
		s.egress[&r.NewPacket(0).RouteID[0]] = p.Nodes[len(p.Nodes)-1]
	}
	s.batches = s.plan(func(flow int) bool { return !spec.mixed || flow < len(s.routes)/2 })
	s.pkts = len(s.routes) * spec.perFlow
	return s, nil
}

// plan lays out one batch per ingress switch: the bursty flows as one
// contiguous run each, then the other flows interleaved one packet at a
// time, round-robin.
func (s *dpSystem) plan(bursty func(flow int) bool) []*ingress {
	byNode := map[string]*ingress{}
	var batches []*ingress
	for _, r := range s.routes {
		if byNode[r.Inject] == nil {
			byNode[r.Inject] = &ingress{node: r.Inject}
			batches = append(batches, byNode[r.Inject])
		}
	}
	for i, r := range s.routes {
		if bursty(i) {
			in := byNode[r.Inject]
			in.plan = append(in.plan, stampRun{r, s.spec.perFlow, s.spec.size - s.spec.sizeStep*i})
		}
	}
	for round := 0; round < s.spec.perFlow; round++ {
		for i, r := range s.routes {
			if !bursty(i) {
				in := byNode[r.Inject]
				in.plan = append(in.plan, stampRun{r, 1, s.spec.size - s.spec.sizeStep*i})
			}
		}
	}
	return batches
}

func (s *dpSystem) close() {}

// stamp refills every ingress batch from its plan.
func (s *dpSystem) stamp() {
	for _, in := range s.batches {
		in.buf = in.buf[:0]
		for _, run := range in.plan {
			in.buf = run.route.AppendPackets(in.buf, run.n, run.size)
		}
	}
}

func (s *dpSystem) inject() error {
	for _, in := range s.batches {
		if err := s.engine.InjectBatch(in.node, in.buf); err != nil {
			return err
		}
	}
	return nil
}

func (s *dpSystem) op() error {
	tr := s.tr
	sp := tr.begin("dataplane.stamp")
	s.stamp()
	tr.end(sp)
	sp = tr.begin("dataplane.inject")
	err := s.inject()
	tr.end(sp)
	if err != nil {
		s.engine.Reset()
		return err
	}
	sp = tr.begin("dataplane.run")
	st, err := s.engine.Run(context.Background())
	tr.end(sp)
	now := s.engine.VirtualNow()
	sp = tr.begin("dataplane.reset")
	s.engine.Reset()
	tr.end(sp)
	if err != nil {
		return err
	}
	if st.Injected != uint64(s.pkts) || st.Delivered+st.Dropped() != st.Injected {
		return fmt.Errorf("packets not conserved: %+v", st)
	}
	if !s.have {
		s.have, s.first, s.firstNow = true, st, now
	} else if st != s.first || now != s.firstNow {
		return fmt.Errorf("op not repeatable: stats %+v at %dns, first op %+v at %dns", st, now, s.first, s.firstNow)
	}
	return nil
}

// digest is the op's Stats and virtual end time, which every op matched,
// and the FNV-1a sum of one more op's delivered stream (egress host, size,
// arrival time, in delivery order); every delivered packet must have left
// at the last node of its route's path.
func (s *dpSystem) digest() (string, error) {
	if !s.have {
		return "", fmt.Errorf("no op completed")
	}
	s.stamp()
	if err := s.inject(); err != nil {
		return "", err
	}
	defer s.engine.Reset()
	if _, err := s.engine.Run(context.Background()); err != nil {
		return "", err
	}
	sum := fnv.New64a()
	for _, p := range s.engine.Delivered() {
		if want := s.egress[&p.RouteID[0]]; p.Egress != want {
			return "", fmt.Errorf("packet %d delivered to %s, its route ends at %s", p.ID, p.Egress, want)
		}
		fmt.Fprintf(sum, "%s %d %d;", p.Egress, p.Size, p.ArrivalNs)
	}
	return fmt.Sprintf("%+v virtual_ns=%d delivered=fnv64a:%016x", s.first, s.firstNow, sum.Sum64()), nil
}

// sink keeps the replayed reductions' results alive.
var sink uint64

// reduction is one node's batch in one forwarding round: the routeIDs the
// switch reduces, in queue order.
type reduction struct {
	sw   *polka.Switch
	red  *gf2.Reducer
	rids [][]byte
}

// reductions models the op's forwarding in the driver — hop-synchronous
// rounds, nodes in domain order, emitted packets appended to the next
// node's queue — and returns every (switch, batch) the engine's serial
// rounds reduce, in order, with the hop total.
func (s *dpSystem) reductions() ([]reduction, int, error) {
	domain := s.engine.Domain()
	names := domain.Nodes()
	index := make(map[string]int, len(names))
	sws := make([]*polka.Switch, len(names))
	reds := make([]*gf2.Reducer, len(names))
	nbrs := make([][]string, len(names))
	for i, name := range names {
		index[name] = i
		sw, err := domain.Switch(name)
		if err != nil {
			return nil, 0, err
		}
		sws[i] = sw
		if reds[i], err = gf2.NewReducer(sw.NodeID()); err != nil {
			return nil, 0, err
		}
		n, err := s.topo.Node(name)
		if err != nil {
			return nil, 0, err
		}
		nbrs[i] = n.Neighbors()
	}
	s.stamp()
	queues := make([][][]byte, len(names))
	for _, in := range s.batches {
		for _, p := range in.buf {
			queues[index[in.node]] = append(queues[index[in.node]], p.RouteID)
		}
	}
	var out []reduction
	hops := 0
	for pending := true; pending; {
		pending = false
		next := make([][][]byte, len(names))
		for i, q := range queues {
			if len(q) == 0 {
				continue
			}
			out = append(out, reduction{sws[i], reds[i], q})
			hops += len(q)
			for j, port := range sws[i].OutputPortBatch(q, nil) {
				if port == 0 || int(port) > len(nbrs[i]) {
					return nil, 0, fmt.Errorf("replay: %s forwards to port %d of %d", names[i], port, len(nbrs[i]))
				}
				if d, fwd := index[nbrs[i][port-1]]; fwd {
					next[d] = append(next[d], q[j])
					pending = true
				}
			}
		}
		queues = next
	}
	return out, hops, nil
}

// probeRun times Run alone with every flow sent bursty, or every flow
// interleaved, and returns the median per hop.
func (s *dpSystem) probeRun(bursty bool, probe time.Duration) (float64, error) {
	saved := s.batches
	defer func() { s.batches = saved }()
	s.batches = s.plan(func(int) bool { return bursty })
	var runs []float64
	var hops uint64
	for start := time.Now(); len(runs) < 20 || time.Since(start) < probe; {
		s.stamp()
		if err := s.inject(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		st, err := s.engine.Run(context.Background())
		runs = append(runs, float64(time.Since(t0)))
		s.engine.Reset()
		if err != nil {
			return 0, err
		}
		hops = st.Hops
	}
	return median(runs) / float64(hops), nil
}

func (s *dpSystem) layers(tr *tracer, probe time.Duration, m map[string]float64) error {
	pkts := float64(s.pkts)
	st := s.first
	run := tr.durations("dataplane.run")
	runP50 := quantile(run, 0.5)
	m["dataplane.stamp_ns_per_pkt"] = mean(tr.durations("dataplane.stamp")) / pkts
	m["dataplane.inject_ns_per_pkt"] = mean(tr.durations("dataplane.inject")) / pkts
	m["dataplane.run_ms_p50"] = runP50 / 1e6
	m["dataplane.reset_us_p50"] = quantile(tr.durations("dataplane.reset"), 0.5) / 1e3
	m["dataplane.run_ns_per_hop"] = runP50 / float64(st.Hops)
	m["dataplane.hops_per_op"] = float64(st.Hops)
	m["dataplane.rounds_per_op"] = float64(st.Rounds)
	m["dataplane.delivered_per_op"] = float64(st.Delivered)
	m["dataplane.drops_per_op"] = float64(st.Dropped())

	// Set-up spans, one per cold construction (per flow for the two
	// per-flow calls, whose first query per source pays the Dijkstra).
	m["topo.fattree_build_ms"] = quantile(tr.durations("topo.fattree_build"), 0.5) / 1e6
	m["topo.sptable_path_us"] = mean(tr.durations("topo.sptable_path")) / 1e3
	m["polka.domain_ms"] = quantile(tr.durations("polka.domain"), 0.5) / 1e6
	m["dataplane.new_ms"] = quantile(tr.durations("dataplane.new"), 0.5) / 1e6
	m["dataplane.route_encode_us"] = mean(tr.durations("dataplane.route_encode")) / 1e3
	hopLists := make([][]polka.PathHop, len(s.routes))
	for i, r := range s.routes {
		hopLists[i] = r.Hops
	}
	enc, err := timeP50(probe, 5, func() error { return encodeAll(s.engine.Domain(), hopLists) })
	if err != nil {
		return err
	}
	m["polka.encode_path_us"] = enc / float64(len(s.routes)) / 1e3

	// Beneath Engine.Run: the switch reductions and the wire, replayed.
	reds, hops, err := s.reductions()
	if err != nil {
		return err
	}
	full := s.spec.engine.LinkMode == dataplane.LinkFull
	if !full && uint64(hops) != st.Hops {
		return fmt.Errorf("replay forwards %d hops, the engine %d", hops, st.Hops)
	}
	reduce, _ := timeP50(probe, 5, func() error {
		for _, r := range reds {
			for _, rid := range r.rids {
				sink += r.red.ReduceBytes(rid)
			}
		}
		return nil
	})
	m["gf2.reduce_ns"] = reduce / float64(hops)
	// The fast tier reduces a node's batch at once, the full tier one
	// frame at a time.
	var ports []uint64
	name, forward := "polka.batch_ns_per_hop", func() error {
		for _, r := range reds {
			ports = r.sw.OutputPortBatch(r.rids, ports[:0])
		}
		return nil
	}
	if full {
		name, forward = "polka.bytes_ns_per_hop", func() error {
			for _, r := range reds {
				for _, rid := range r.rids {
					sink += r.sw.OutputPortBytes(rid)
				}
			}
			return nil
		}
	}
	perHop, _ := timeP50(probe, 5, forward)
	m[name] = perHop / float64(hops)
	polkaNs := m[name] * float64(st.Hops) // the reductions' share of one Run

	var linkNs float64
	if full {
		if linkNs, err = s.linkLayers(m, runP50, probe); err != nil {
			return err
		}
	}
	m["dataplane.run_self_share"] = 1 - (polkaNs+linkNs)/runP50

	if s.spec.mixed {
		if m["dataplane.run_ns_per_hop_burst"], err = s.probeRun(true, probe); err != nil {
			return err
		}
		if m["dataplane.run_ns_per_hop_interleaved"], err = s.probeRun(false, probe); err != nil {
			return err
		}
	}
	return nil
}

// linkLayers runs one op up to (not including) Reset, reads every link's
// counters, replays the frames on stand-alone FullPaths, and returns the
// wire's share of one Run in ns.
func (s *dpSystem) linkLayers(m map[string]float64, runP50 float64, probe time.Duration) (float64, error) {
	s.stamp()
	if err := s.inject(); err != nil {
		return 0, err
	}
	st, err := s.engine.Run(context.Background())
	if err != nil {
		return 0, err
	}
	defer s.engine.Reset()
	ingress := map[string]bool{}
	for _, in := range s.batches {
		ingress[in.node] = true
	}
	// first is the busiest link out of an ingress switch, where a flow's
	// whole burst is offered at once; later is the busiest of the others,
	// which see frames paced by the link before.
	type load struct {
		offered uint64
		stats   link.Stats
		attrs   topo.LinkAttrs
	}
	var first, later load
	links, frames, firstFrames := 0, uint64(0), uint64(0)
	for _, l := range s.topo.Links() {
		ls, err := s.engine.LinkStats(l.From, l.To)
		if err != nil {
			continue // a host's uplink: not in the forwarding plane
		}
		links++
		ld := load{ls.Sent + ls.LossDrops + ls.QueueDrops, ls, l.Attrs}
		frames += ld.offered
		if ingress[l.From] {
			firstFrames += ld.offered
			if ld.offered > first.offered {
				first = ld
			}
		} else if ld.offered > later.offered {
			later = ld
		}
	}
	m["dataplane.links_total"] = float64(links)
	m["dataplane.run_ns_per_step_link"] = runP50 / (float64(st.Rounds) * float64(links))
	m["link.frames_per_op"] = float64(frames)
	m["link.queue_drops_per_op"] = float64(st.QueueDrops)
	m["link.loss_drops_per_op"] = float64(st.LossDrops)
	m["link.sojourn_p99_ms"] = first.stats.QueueDelayP99Ms()

	// replay offers ld's frames to a link of its own with the workload's
	// template — all at once, or one per serialization time — popping
	// whatever has arrived, and returns the cost per frame.
	replay := func(ld load, paced bool) float64 {
		cfg := s.spec.engine.Link
		if cfg.RateMbps == 0 {
			cfg.RateMbps = ld.attrs.CapacityMbps
		}
		if cfg.DelayMs == 0 {
			cfg.DelayMs = ld.attrs.DelayMs
		}
		cfg.Seed = 1
		var gap link.Time
		if paced {
			gap = link.Time(float64(s.spec.size) * 8 * 1e3 / cfg.RateMbps)
		}
		n := int(ld.offered)
		if n == 0 {
			return 0
		}
		// The link is built outside the stopwatch: the engine builds its
		// links in New and Reset, not in Run.
		var reps []float64
		for start := time.Now(); len(reps) < 5 || time.Since(start) < probe; {
			p := link.NewFullPath(cfg)
			now := link.Time(0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				p.Send(now, link.Frame{Seq: uint64(i), Size: s.spec.size})
				now += gap
				for {
					if _, ok := p.Pop(now); !ok {
						break
					}
				}
			}
			for {
				at, ok := p.Next()
				if !ok {
					break
				}
				p.Pop(at)
			}
			reps = append(reps, float64(time.Since(t0)))
		}
		return median(reps) / float64(n)
	}
	wire := replay(first, false)*float64(firstFrames) + replay(later, true)*float64(frames-firstFrames)
	m["link.send_pop_ns_per_frame"] = wire / float64(frames)
	return wire, nil
}
