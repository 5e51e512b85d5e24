package netem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/timeseries"
	"repro/internal/topo"
)

// The reference tick: the emulator's allocation step as it was before the
// link-index rewrite — ID-keyed maps, every flow's path re-resolved
// through the topology on every tick, a fresh capacity map per tick and
// three maps per filling round. It is kept as the slow, obviously-right
// oracle the index-compiled tick is differentially tested against
// (TestTickMatchesReference); nothing outside this file uses it.

type refKey struct {
	flow FlowID
	sub  int
}

type refAllocFlow struct {
	id     refKey
	demand float64
	links  []string
}

func refMaxMinFair(flows []refAllocFlow, capacity map[string]float64) map[refKey]float64 {
	rates := make(map[refKey]float64, len(flows))
	remaining := make(map[string]float64, len(capacity))
	for k, v := range capacity {
		remaining[k] = v
	}
	active := make([]refAllocFlow, 0, len(flows))
	for _, f := range flows {
		if f.demand <= 0 {
			rates[f.id] = 0
			continue
		}
		active = append(active, f)
	}

	const eps = 1e-9
	for len(active) > 0 {
		counts := make(map[string]int)
		for _, f := range active {
			for _, l := range f.links {
				counts[l]++
			}
		}
		share := math.Inf(1)
		for l, n := range counts {
			if s := remaining[l] / float64(n); s < share {
				share = s
			}
		}
		minDemand := math.Inf(1)
		for _, f := range active {
			if f.demand < minDemand {
				minDemand = f.demand
			}
		}
		level := share
		if minDemand < level {
			level = minDemand
		}
		if level < 0 {
			level = 0
		}

		bottleneck := make(map[string]bool)
		for l, n := range counts {
			if remaining[l]/float64(n) <= level+eps {
				bottleneck[l] = true
			}
		}
		next := active[:0]
		frozeAny := false
		for _, f := range active {
			frozen := false
			var rate float64
			if f.demand <= level+eps {
				frozen, rate = true, f.demand
			} else {
				for _, l := range f.links {
					if bottleneck[l] {
						frozen, rate = true, level
						break
					}
				}
			}
			if frozen {
				rates[f.id] = rate
				for _, l := range f.links {
					remaining[l] -= rate
					if remaining[l] < 0 {
						remaining[l] = 0
					}
				}
				frozeAny = true
			} else {
				next = append(next, f)
			}
		}
		if !frozeAny {
			for _, f := range next {
				rates[f.id] = level
			}
			break
		}
		active = next
	}
	return rates
}

type refEmulator struct {
	topo *topo.Topology
	cfg  Config
	now  float64

	nextID FlowID
	flows  map[FlowID]*Flow
	order  []FlowID

	flowSeries map[FlowID]*timeseries.Series
	linkUtil   map[string]*timeseries.Series
	lastAlloc  map[string]float64
	downLinks  map[string]bool
}

func newRefEmulator(t *topo.Topology, cfg Config) *refEmulator {
	cfg = cfg.withDefaults()
	e := &refEmulator{
		topo:       t,
		cfg:        cfg,
		flows:      make(map[FlowID]*Flow),
		flowSeries: make(map[FlowID]*timeseries.Series),
		lastAlloc:  make(map[string]float64),
		downLinks:  make(map[string]bool),
	}
	if cfg.RecordLinkSeries {
		e.linkUtil = make(map[string]*timeseries.Series)
		for _, l := range t.Links() {
			e.linkUtil[l.ID()] = &timeseries.Series{}
		}
	}
	return e
}

func refPaths(s FlowSpec) []topo.Path {
	if len(s.MultiPaths) > 0 {
		return s.MultiPaths
	}
	return []topo.Path{s.Path}
}

func (e *refEmulator) checkPath(spec FlowSpec, p topo.Path) error {
	if len(p.Nodes) < 2 {
		return fmt.Errorf("netem: path %v too short", p.Nodes)
	}
	if p.Nodes[0] != spec.Src || p.Nodes[len(p.Nodes)-1] != spec.Dst {
		return fmt.Errorf("netem: path %v does not connect %s to %s", p, spec.Src, spec.Dst)
	}
	_, err := e.topo.PathLinks(p)
	return err
}

func (e *refEmulator) AddFlow(spec FlowSpec) (FlowID, error) {
	if len(spec.MultiPaths) > 0 && spec.DemandMbps != 0 {
		return 0, errors.New("netem: multipath flows must be greedy (DemandMbps = 0)")
	}
	for _, p := range refPaths(spec) {
		if err := e.checkPath(spec, p); err != nil {
			return 0, err
		}
	}
	if spec.DemandMbps < 0 {
		return 0, errors.New("netem: negative demand")
	}
	if spec.SizeMB < 0 {
		return 0, errors.New("netem: negative flow size")
	}
	e.nextID++
	id := e.nextID
	e.flows[id] = &Flow{ID: id, Spec: spec, Active: true, CompletedAt: -1, SubRates: make([]float64, len(refPaths(spec)))}
	e.order = append(e.order, id)
	e.flowSeries[id] = &timeseries.Series{}
	return id, nil
}

func (e *refEmulator) Reroute(id FlowID, p topo.Path) error {
	f, ok := e.flows[id]
	if !ok {
		return fmt.Errorf("netem: unknown flow %d", id)
	}
	if len(f.Spec.MultiPaths) > 0 {
		return fmt.Errorf("netem: flow %d is multipath; reroute by replacing it", id)
	}
	if err := e.checkPath(f.Spec, p); err != nil {
		return err
	}
	f.Spec.Path = p
	return nil
}

func (e *refEmulator) StopFlow(id FlowID) error {
	f, ok := e.flows[id]
	if !ok {
		return fmt.Errorf("netem: unknown flow %d", id)
	}
	f.Active = false
	f.RateMbps = 0
	for i := range f.SubRates {
		f.SubRates[i] = 0
	}
	return nil
}

func (e *refEmulator) FailLink(a, b string) error {
	if _, err := e.topo.Link(a, b); err != nil {
		return err
	}
	e.downLinks[a+"->"+b] = true
	e.downLinks[b+"->"+a] = true
	return nil
}

func (e *refEmulator) RestoreLink(a, b string) error {
	if _, err := e.topo.Link(a, b); err != nil {
		return err
	}
	delete(e.downLinks, a+"->"+b)
	delete(e.downLinks, b+"->"+a)
	return nil
}

func (e *refEmulator) Step() {
	tick := e.cfg.TickSeconds
	var specs []refAllocFlow
	for _, id := range e.order {
		f := e.flows[id]
		if !f.Active {
			continue
		}
		for sub, p := range refPaths(f.Spec) {
			demand := f.SubRates[sub] + e.cfg.RampMbpsPerSec*tick
			if f.Spec.DemandMbps > 0 && demand > f.Spec.DemandMbps {
				demand = f.Spec.DemandMbps
			}
			links, err := e.topo.PathLinks(p)
			if err != nil {
				demand = 0
			}
			ids := make([]string, len(links))
			for i, l := range links {
				ids[i] = l.ID()
			}
			for _, id := range ids {
				if e.downLinks[id] {
					demand = 0
				}
			}
			specs = append(specs, refAllocFlow{id: refKey{flow: id, sub: sub}, demand: demand, links: ids})
		}
	}
	capacities := make(map[string]float64)
	for _, l := range e.topo.Links() {
		capacities[l.ID()] = l.Attrs.CapacityMbps
	}
	rates := refMaxMinFair(specs, capacities)

	e.now += tick
	alloc := make(map[string]float64)
	for _, id := range e.order {
		if f := e.flows[id]; f.Active {
			f.RateMbps = 0
		}
	}
	for _, s := range specs {
		f := e.flows[s.id.flow]
		rate := rates[s.id]
		f.SubRates[s.id.sub] = rate
		f.RateMbps += rate
		f.Bytes += rate * 1e6 / 8 * tick
		for _, l := range s.links {
			alloc[l] += rate
		}
	}
	for _, id := range e.order {
		f := e.flows[id]
		if f.Active && f.Spec.SizeMB > 0 && f.Bytes >= f.Spec.SizeMB*1e6 {
			f.Active = false
			f.RateMbps = 0
			for i := range f.SubRates {
				f.SubRates[i] = 0
			}
			f.CompletedAt = e.now
		}
	}
	e.lastAlloc = alloc
	for _, id := range e.order {
		f := e.flows[id]
		rate := 0.0
		if f.Active {
			rate = f.RateMbps
		}
		e.flowSeries[id].MustAppend(e.now, rate)
	}
	if e.linkUtil != nil {
		for _, l := range e.topo.Links() {
			util := alloc[l.ID()] / l.Attrs.CapacityMbps
			e.linkUtil[l.ID()].MustAppend(e.now, util)
		}
	}
}

func (e *refEmulator) PathAvailableMbps(p topo.Path) (float64, error) {
	links, err := e.topo.PathLinks(p)
	if err != nil {
		return 0, err
	}
	avail := math.Inf(1)
	for _, l := range links {
		if e.downLinks[l.ID()] {
			return 0, nil
		}
		r := l.Attrs.CapacityMbps - e.lastAlloc[l.ID()]
		if r < 0 {
			r = 0
		}
		if r < avail {
			avail = r
		}
	}
	return avail, nil
}

func (e *refEmulator) PathMaxUtilization(p topo.Path) (float64, error) {
	links, err := e.topo.PathLinks(p)
	if err != nil {
		return 0, err
	}
	maxU := 0.0
	for _, l := range links {
		if e.downLinks[l.ID()] {
			return 1, nil
		}
		u := e.lastAlloc[l.ID()] / l.Attrs.CapacityMbps
		if u > maxU {
			maxU = u
		}
	}
	return maxU, nil
}

func (e *refEmulator) ProbeRTTms(p topo.Path) (float64, error) {
	fwd, err := e.topo.PathLinks(p)
	if err != nil {
		return 0, err
	}
	rtt := 0.0
	down := false
	add := func(l *topo.Link) {
		if e.downLinks[l.ID()] {
			down = true
			return
		}
		rtt += l.Attrs.DelayMs
		u := e.lastAlloc[l.ID()] / l.Attrs.CapacityMbps
		if u > 0.999 {
			u = 0.999
		}
		q := e.cfg.QueueFactorMs * u / (1 - u)
		if q > e.cfg.MaxQueueMs {
			q = e.cfg.MaxQueueMs
		}
		rtt += q
	}
	for _, l := range fwd {
		add(l)
	}
	for i := len(p.Nodes) - 1; i > 0; i-- {
		l, err := e.topo.Link(p.Nodes[i], p.Nodes[i-1])
		if err != nil {
			return 0, err
		}
		add(l)
	}
	if down {
		return UnreachableRTTms, nil
	}
	return rtt, nil
}

// tickTopology is one graph the differential test runs on, with the host
// pairs flows run between and a few loop-free paths per pair.
type tickTopology struct {
	name  string
	t     *topo.Topology
	pairs [][]topo.Path // pairs[i]: alternative paths between one src/dst
}

func tickTopologies(t *testing.T) []tickTopology {
	t.Helper()
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := []tickTopology{{name: "lab", t: lab, pairs: [][]topo.Path{
		{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()},
	}}}

	ft, err := topo.FatTree(topo.DefaultFatTreeConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	isp, err := topo.ISPGraph(topo.ISPConfig{Routers: 40, MinDegree: 2, Hosts: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		t    *topo.Topology
	}{{"fattree4", ft}, {"isp40", isp}} {
		hosts := g.t.NodesOfKind(topo.Host)
		tt := tickTopology{name: g.name, t: g.t}
		for i := 0; i+1 < len(hosts) && len(tt.pairs) < 6; i += 2 {
			// Far-apart hosts, so the alternatives differ in the core.
			src, dst := hosts[i], hosts[len(hosts)-1-i]
			if src == dst {
				continue
			}
			paths, err := g.t.KShortestPaths(src, dst, 3, topo.ByHops)
			if err != nil {
				t.Fatal(err)
			}
			tt.pairs = append(tt.pairs, paths)
		}
		out = append(out, tt)
	}
	return out
}

// sameSeries requires two series to agree bit for bit.
func sameSeries(t *testing.T, what string, got, want *timeseries.Series) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d samples, reference has %d", what, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if math.Float64bits(g.Time) != math.Float64bits(w.Time) || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: sample %d is (%v, %v), reference (%v, %v)", what, i, g.Time, g.Value, w.Time, w.Value)
		}
	}
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestTickMatchesReference drives the emulator and the reference tick
// through the same seeded random schedule — capped, greedy, finite and
// multipath flows arriving, being stopped and rerouted, links failing and
// coming back, link series recorded — and requires every observable
// float to agree bit for bit, after every tick for the probes and at the
// end for the series.
func TestTickMatchesReference(t *testing.T) {
	for _, tt := range tickTopologies(t) {
		// What the schedules of this topology exercised, over all seeds.
		completed, refused := 0, 0
		for seed := int64(1); seed <= 4; seed++ {
			tt, seed := tt, seed
			t.Run(fmt.Sprintf("%s/seed%d", tt.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := Config{RecordLinkSeries: true}
				if seed%2 == 0 {
					cfg.TickSeconds, cfg.RampMbpsPerSec = 0.25, 15
				}
				emu, ref := New(tt.t, cfg), newRefEmulator(tt.t, cfg)
				var ids []FlowID
				var failed [][2]string
				randomPath := func() topo.Path {
					alts := tt.pairs[rng.Intn(len(tt.pairs))]
					return alts[rng.Intn(len(alts))]
				}
				for tick := 0; tick < 300; tick++ {
					switch r := rng.Intn(20); {
					case r < 4 || len(ids) == 0:
						alts := tt.pairs[rng.Intn(len(tt.pairs))]
						p := alts[rng.Intn(len(alts))]
						spec := FlowSpec{Name: fmt.Sprintf("f%d", tick),
							Src: p.Nodes[0], Dst: p.Nodes[len(p.Nodes)-1], Path: p}
						switch rng.Intn(4) {
						case 0:
							spec.DemandMbps = 0.5 + 12*rng.Float64()
						case 1:
							spec.SizeMB = 0.2 + 3*rng.Float64()
						case 2:
							spec.Path, spec.MultiPaths = topo.Path{}, alts
						}
						id, err := emu.AddFlow(spec)
						rid, rerr := ref.AddFlow(spec)
						if err != nil || rerr != nil || id != rid {
							t.Fatalf("AddFlow: %d %v, reference %d %v", id, err, rid, rerr)
						}
						ids = append(ids, id)
					case r < 6:
						id := ids[rng.Intn(len(ids))]
						if err, rerr := emu.StopFlow(id), ref.StopFlow(id); err != nil || rerr != nil {
							t.Fatalf("StopFlow: %v, reference %v", err, rerr)
						}
					case r < 10:
						// Any path: a reroute onto another pair's path or of a
						// multipath flow must be refused by both.
						id, p := ids[rng.Intn(len(ids))], randomPath()
						err, rerr := emu.Reroute(id, p), ref.Reroute(id, p)
						if (err == nil) != (rerr == nil) {
							t.Fatalf("Reroute: %v, reference %v", err, rerr)
						}
						if err != nil {
							refused++
						}
					case r < 12:
						p := randomPath()
						i := rng.Intn(len(p.Nodes) - 1)
						a, b := p.Nodes[i], p.Nodes[i+1]
						if err, rerr := emu.FailLink(a, b), ref.FailLink(a, b); err != nil || rerr != nil {
							t.Fatalf("FailLink: %v, reference %v", err, rerr)
						}
						failed = append(failed, [2]string{a, b})
					case r < 14 && len(failed) > 0:
						i := rng.Intn(len(failed))
						l := failed[i]
						failed = append(failed[:i], failed[i+1:]...)
						if err, rerr := emu.RestoreLink(l[0], l[1]), ref.RestoreLink(l[0], l[1]); err != nil || rerr != nil {
							t.Fatalf("RestoreLink: %v, reference %v", err, rerr)
						}
					}
					emu.Step()
					ref.Step()

					sameBits(t, "Now", emu.Now(), ref.now)
					for _, alts := range tt.pairs {
						for _, p := range alts {
							got, err := emu.ProbeRTTms(p)
							want, rerr := ref.ProbeRTTms(p)
							if err != nil || rerr != nil {
								t.Fatalf("ProbeRTTms: %v, reference %v", err, rerr)
							}
							sameBits(t, "ProbeRTTms "+p.String(), got, want)
							got, _ = emu.PathAvailableMbps(p)
							want, _ = ref.PathAvailableMbps(p)
							sameBits(t, "PathAvailableMbps "+p.String(), got, want)
							got, _ = emu.PathMaxUtilization(p)
							want, _ = ref.PathMaxUtilization(p)
							sameBits(t, "PathMaxUtilization "+p.String(), got, want)
						}
					}
					for _, l := range tt.t.Links() {
						sameBits(t, "LinkAllocatedMbps "+l.ID(), emu.LinkAllocatedMbps(l.ID()), ref.lastAlloc[l.ID()])
						if emu.LinkDown(l.ID()) != ref.downLinks[l.ID()] {
							t.Fatalf("LinkDown %s: %v, reference %v", l.ID(), emu.LinkDown(l.ID()), ref.downLinks[l.ID()])
						}
					}
					for _, f := range emu.Flows() {
						want := ref.flows[f.ID]
						sameBits(t, fmt.Sprintf("flow %d Bytes", f.ID), f.Bytes, want.Bytes)
						sameBits(t, fmt.Sprintf("flow %d RateMbps", f.ID), f.RateMbps, want.RateMbps)
						sameBits(t, fmt.Sprintf("flow %d CompletedAt", f.ID), f.CompletedAt, want.CompletedAt)
						if f.Active != want.Active || len(f.SubRates) != len(want.SubRates) {
							t.Fatalf("flow %d: active %v with %d subrates, reference %v with %d",
								f.ID, f.Active, len(f.SubRates), want.Active, len(want.SubRates))
						}
						for i := range f.SubRates {
							sameBits(t, fmt.Sprintf("flow %d SubRates[%d]", f.ID, i), f.SubRates[i], want.SubRates[i])
						}
					}
				}

				for _, id := range ids {
					got, err := emu.FlowSeries(id)
					if err != nil {
						t.Fatal(err)
					}
					sameSeries(t, fmt.Sprintf("FlowSeries(%d)", id), got, ref.flowSeries[id])
					if ref.flows[id].CompletedAt >= 0 {
						completed++
					}
				}
				for _, l := range tt.t.Links() {
					got, err := emu.LinkUtilSeries(l.ID())
					if err != nil {
						t.Fatal(err)
					}
					sameSeries(t, "LinkUtilSeries("+l.ID()+")", got, ref.linkUtil[l.ID()])
				}
			})
		}
		if completed == 0 || refused == 0 {
			t.Errorf("%s: %d finite flows completed and %d reroutes were refused; the schedules must cover both",
				tt.name, completed, refused)
		}
	}
}
