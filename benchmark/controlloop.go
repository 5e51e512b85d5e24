package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/controlplane"
	"repro/internal/hecate"
	"repro/internal/netem"
	"repro/internal/polka"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

const (
	loopObjective = "max-bandwidth"
	// loopWarmupSec of emulated telemetry are collected before Hecate is
	// trained, the background demands moving throughout.
	loopWarmupSec = 120
	// loopMoveSec is how often, in emulated seconds (one op is one), the
	// driver moves one background flow to another tunnel, during that
	// history and during the ops alike.
	loopMoveSec = 5
	// loopBackground flows load the tunnels, two on each to begin with.
	loopBackground = 6
	// loopFlows request names cycle: the first of each creates the flow,
	// the rest migrate it.
	loopFlows = 8
	// loopHistorySeed seeds the background's demands and moves while the
	// training history accumulates, the same on every run: the size of a
	// Random Forest, and with it the cost of every forecast (26–66 µs in
	// an op of 600 µs), depends on the data it was fitted to, so a history
	// drawn from the run's seed made whole runs dearer or cheaper by ±4 %.
	// The run's seed takes over once Hecate is trained.
	loopHistorySeed = 1
	// loopDigestDecisions placement decisions are folded into the digest.
	loopDigestDecisions = 1000
)

// countingBus counts publishes; a traced run wires the framework over it
// so bus.msgs_per_op is exact.
type countingBus struct {
	bus.Bus
	published atomic.Int64
}

func (b *countingBus) Publish(m bus.Message) error {
	b.published.Add(1)
	return b.Bus.Publish(m)
}

// loopSystem is the assembled framework on the lab topology with
// background flows that wander between the tunnels. The seed decides the
// order of things — which demand goes to which flow, which flow moves
// where, which request is pinned — while the sets of demands are fixed, so
// every seed loads the network equally on average and the cost of an op
// does not depend on the seed. Flows are moved with Reroute, never
// replaced: the emulator keeps every stopped flow in its per-tick loop,
// and replacing three flows every 5 ops made the op 40 % dearer at the
// end of a 10 s window than at its start.
type loopSystem struct {
	traced
	fw      *controlplane.Framework
	counter *countingBus // nil on an untraced run
	rnd     *rand.Rand
	ids     []int // tunnel ids, ascending
	bg      []netem.FlowID
	names   [loopFlows]string
	demands [loopFlows]float64 // of the request flows, 1–10 Mbps
	ops     int

	decisions int
	sum       hash.Hash64
	// mlMsgs and mlOps count bus messages over the traced ops that took
	// the telemetry + Hecate path.
	mlMsgs, mlOps int64
}

func tunnelSeries(id int) string {
	return telemetry.PathBandwidthKey(fmt.Sprintf("tunnel%d", id))
}

func setupControlLoop(seed int64, tr *tracer) (system, error) {
	s := &loopSystem{rnd: rand.New(rand.NewSource(loopHistorySeed)), sum: fnv.New64a()}
	s.tr = tr
	cfg := controlplane.FrameworkConfig{}
	if tr != nil {
		s.counter = &countingBus{Bus: bus.NewInProc()}
		cfg.Bus = s.counter
	}
	sp := tr.begin("controlplane.new")
	fw, err := controlplane.NewFramework(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s.fw = fw
	s.ids = fw.Control.Tunnels()

	// Background demands 1…6 Mbps, 21 of the tunnels' 35 Mbps in all.
	for i, j := range s.rnd.Perm(loopBackground) {
		path := fw.Tunnels[s.ids[i%len(s.ids)]]
		id, err := fw.Emu.AddFlow(netem.FlowSpec{
			Name: fmt.Sprintf("bg%d", i), Src: path.Nodes[0], Dst: path.Nodes[len(path.Nodes)-1],
			Proto: 6, DemandMbps: float64(j + 1), Path: path,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.bg = append(s.bg, id)
	}
	ctx := context.Background()
	for t := 0; t < loopWarmupSec; t += loopMoveSec {
		if err := s.move(); err == nil {
			err = fw.RunFor(ctx, loopMoveSec)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	sp = tr.begin("controlplane.train")
	err = fw.Control.TrainHecateContext(ctx, loopObjective, loopWarmupSec)
	tr.end(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	// A flat history makes Hecate swap the regressor for a persistence
	// shortcut, which would silently change what the op measures.
	for _, id := range s.ids {
		hist, err := fw.Dash.Telemetry(tunnelSeries(id), loopWarmupSec)
		if err == nil && flat(hist) {
			err = fmt.Errorf("tunnel %d: telemetry history has zero variance", id)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	s.rnd = rand.New(rand.NewSource(seed))
	for i, j := range s.rnd.Perm(loopFlows) {
		s.names[i] = fmt.Sprintf("req%d", i)
		s.demands[i] = 1 + 9*float64(j)/(loopFlows-1)
	}
	return s, nil
}

func flat(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

// move puts one seeded background flow on one seeded tunnel.
func (s *loopSystem) move() error {
	flow := s.bg[s.rnd.Intn(len(s.bg))]
	return s.fw.Emu.Reroute(flow, s.fw.Tunnels[s.ids[s.rnd.Intn(len(s.ids))]])
}

func (s *loopSystem) close() {
	s.fw.Stop()
	if s.counter != nil {
		_ = s.counter.Close() // the framework does not own a bus it was given
	}
}

// op advances the emulator one telemetry tick and places one flow.
func (s *loopSystem) op() error {
	tr := s.tr
	i := s.ops
	s.ops++
	if i%loopMoveSec == 0 {
		if err := s.move(); err != nil {
			return err
		}
	}
	sp := tr.begin("netem.runfor")
	err := s.fw.RunFor(context.Background(), 1)
	tr.end(sp)
	if err != nil {
		return err
	}

	req := controlplane.FlowRequest{
		Name: s.names[i%loopFlows], ToS: uint8(i % loopFlows),
		DemandMbps: s.demands[i%loopFlows], Objective: loopObjective,
	}
	span := "controlplane.insert"
	if s.rnd.Intn(8) == 0 {
		req.PinTunnel = s.ids[s.rnd.Intn(len(s.ids))]
		span = "controlplane.insert_pinned"
	}
	var before int64
	if tr != nil {
		before = s.counter.published.Load()
	}
	sp = tr.begin(span)
	resp, err := s.fw.Dash.InsertNewFlow(req)
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil && req.PinTunnel == 0 {
		s.mlMsgs += s.counter.published.Load() - before
		s.mlOps++
	}

	path, ok := s.fw.Tunnels[resp.TunnelID]
	switch {
	case !ok:
		return fmt.Errorf("flow %s placed on tunnel %d, which is not provisioned", req.Name, resp.TunnelID)
	case resp.Path != path.String():
		return fmt.Errorf("flow %s: tunnel %d reported as %q, provisioned as %q", req.Name, resp.TunnelID, resp.Path, path)
	case req.PinTunnel != 0 && resp.TunnelID != req.PinTunnel:
		return fmt.Errorf("flow %s pinned to tunnel %d, placed on %d", req.Name, req.PinTunnel, resp.TunnelID)
	}
	if s.decisions < loopDigestDecisions {
		fmt.Fprintf(s.sum, "%d:%s;", resp.TunnelID, resp.Path)
		s.decisions++
	}
	return nil
}

// digest is the FNV-1a sum of the first loopDigestDecisions placements;
// ops are deterministic in their number, so a short window is topped up.
func (s *loopSystem) digest() (string, error) {
	for s.decisions < loopDigestDecisions {
		if err := s.op(); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("fnv64a:%016x over %d decisions", s.sum.Sum64(), s.decisions), nil
}

func (s *loopSystem) layers(tr *tracer, probe time.Duration, m map[string]float64) error {
	m["netem.runfor_ms_p50"] = quantile(tr.durations("netem.runfor"), 0.5) / 1e6
	insert := tr.durations("controlplane.insert")
	m["controlplane.insert_ms_p50"] = quantile(insert, 0.5) / 1e6
	m["controlplane.insert_ms_p99"] = quantile(insert, 0.99) / 1e6
	m["controlplane.insert_pinned_ms_p50"] = quantile(tr.durations("controlplane.insert_pinned"), 0.5) / 1e6
	m["controlplane.new_ms"] = quantile(tr.durations("controlplane.new"), 0.5) / 1e6
	m["controlplane.train_ms"] = quantile(tr.durations("controlplane.train"), 0.5) / 1e6
	if s.mlOps > 0 {
		m["bus.msgs_per_op"] = float64(s.mlMsgs) / float64(s.mlOps)
	}
	active := 0
	for _, f := range s.fw.Emu.Flows() {
		if f.Active {
			active++
		}
	}
	m["netem.flows_active"] = float64(active)

	// One request/reply over a fresh in-process bus, to an echo service.
	b := bus.NewInProc()
	ch, cancel, err := b.Subscribe("echo")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for req := range ch {
			if reply, err := bus.Reply(req, "echo.reply", "return", struct{}{}); err == nil {
				_ = b.Publish(reply) // a failed publish shows as the requester's timeout
			}
		}
	}()
	request, err := timeP50(probe, 200, func() error {
		_, err := bus.Request(b, bus.Message{Topic: "echo", Type: "ping"}, "echo.reply", time.Second)
		return err
	})
	cancel()
	<-done
	_ = b.Close()
	if err != nil {
		return err
	}
	m["bus.request_us_p50"] = request / 1e3

	// Telemetry query, then Hecate fitted and asked directly on the
	// histories this run saw.
	query, err := timeP50(probe, 100, func() error {
		_, err := s.fw.Dash.Telemetry(tunnelSeries(s.ids[0]), 10)
		return err
	})
	if err != nil {
		return err
	}
	m["telemetry.query_us_p50"] = query / 1e3
	full := map[string][]float64{}
	recent := map[string][]float64{}
	for _, id := range s.ids {
		hist, err := s.fw.Dash.Telemetry(tunnelSeries(id), loopWarmupSec)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("tunnel%d", id)
		full[name], recent[name] = hist, hist[len(hist)-10:]
	}
	opt, err := hecate.New(hecate.Config{})
	if err != nil {
		return err
	}
	train, err := timeP50(0, 3, func() error {
		for name, hist := range full {
			if err := opt.TrainPath(name, hist); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	recommend, err := timeP50(probe, 50, func() error {
		_, err := opt.Recommend(recent, hecate.MaxBandwidth)
		return err
	})
	if err != nil {
		return err
	}
	m["hecate.train_ms"] = train / 1e6
	m["hecate.recommend_us_p50"] = recommend / 1e3

	// RouteID encoding of the three tunnels, as provisioning does it.
	domain := s.fw.Polka.Domain()
	var hops [][]polka.PathHop
	for _, id := range s.ids {
		h, err := routerHops(domain, s.fw.Emu.Topology(), s.fw.Tunnels[id])
		if err != nil {
			return err
		}
		hops = append(hops, h)
	}
	enc, err := timeP50(probe, 50, func() error { return encodeAll(domain, hops) })
	if err != nil {
		return err
	}
	m["polka.encode_path_us"] = enc / float64(len(hops)) / 1e3
	return nil
}

// encodeAll encodes every hop list into its routeID.
func encodeAll(domain *polka.Domain, paths [][]polka.PathHop) error {
	for _, hops := range paths {
		if _, err := domain.EncodePath(hops); err != nil {
			return err
		}
	}
	return nil
}

// routerHops lists the (node, port) decisions of the path's routers.
func routerHops(domain *polka.Domain, t *topo.Topology, p topo.Path) ([]polka.PathHop, error) {
	var hops []polka.PathHop
	for i, name := range p.Nodes[:len(p.Nodes)-1] {
		if _, err := domain.Switch(name); err != nil {
			continue // a host
		}
		n, err := t.Node(name)
		if err != nil {
			return nil, err
		}
		port, err := n.Port(p.Nodes[i+1])
		if err != nil {
			return nil, err
		}
		hops = append(hops, polka.PathHop{Node: name, Port: port})
	}
	return hops, nil
}
