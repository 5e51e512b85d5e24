// Package netem is a discrete-time, flow-level network emulator standing in
// for the paper's RARE/freeRtr + VirtualBox testbed. It models what the two
// testbed experiments measure:
//
//   - per-link capacity caps (the VirtualBox rate limits) and propagation
//     delays (the tc-injected 20 ms on MIA-SAO),
//   - TCP-like flows that ramp up toward their max-min fair share of the
//     bottleneck links along their path,
//   - ICMP-like RTT probes whose latency includes a utilization-dependent
//     queueing term,
//   - and agile path migration: rerouting a flow is a single path swap at
//     the ingress edge, exactly like updating one PBR entry in freeRtr.
//
// The emulator advances in fixed ticks. On every tick it computes the
// max-min fair allocation of all active flows over the directed links of
// their paths (progressive filling), applies a ramp so throughput curves
// resemble TCP instead of jumping instantly, and records per-flow and
// per-link time series.
//
// The tick works on indices, not names: every directed link is addressed
// by its topo.Link.Index, a flow's subpaths are compiled to index lists
// when the flow is placed (AddFlow, Reroute), per-link state lives in
// slices, and only active flows are visited, so a steady tick allocates
// nothing beyond the growth of the recorded series.
package netem

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/timeseries"
	"repro/internal/topo"
)

// FlowID identifies a flow within one emulator instance.
type FlowID int

// FlowSpec describes a flow to inject.
type FlowSpec struct {
	// Name is a human-readable label ("flow1").
	Name string
	// Src and Dst are host node names; they must match the path endpoints.
	Src, Dst string
	// ToS is the IP type-of-service tag the edge classifier matches on.
	ToS uint8
	// Proto is the IP protocol (6 = TCP).
	Proto uint8
	// DemandMbps caps the flow's offered load; 0 means greedy (iperf-like,
	// limited only by the network).
	DemandMbps float64
	// Path is the node sequence the flow is pinned to (its tunnel).
	Path topo.Path
	// MultiPaths, when non-empty, makes this an M-PolKA-style multipath
	// flow: traffic splits across all listed paths (Path is ignored), each
	// subpath taking its own max-min fair share. Multipath flows must be
	// greedy (DemandMbps = 0).
	MultiPaths []topo.Path
	// SizeMB, when positive, makes the flow finite: it completes (and
	// releases its bandwidth) once that many megabytes have been
	// delivered — the shape needed for flow-completion-time experiments.
	SizeMB float64
}

// Flow is the live state of an injected flow.
type Flow struct {
	ID   FlowID
	Spec FlowSpec
	// RateMbps is the currently achieved throughput (summed over
	// subpaths for multipath flows).
	RateMbps float64
	// SubRates holds the per-subpath rates, aligned with Spec.MultiPaths
	// (single-element for single-path flows).
	SubRates []float64
	// Bytes is the cumulative volume delivered.
	Bytes float64
	// Active is false once the flow is stopped or completed.
	Active bool
	// CompletedAt is the simulation time a finite flow finished
	// delivering its SizeMB, or -1 while in flight / for unbounded flows.
	CompletedAt float64
}

// flowState is the emulator's record of a flow: the public state, the
// subpaths compiled to link indices, and the throughput samples.
type flowState struct {
	Flow
	// subs[i] lists the directed links of subpath i by topo.Link.Index.
	subs [][]int32
	// rates holds one sample per tick from Emulator.ticks[first] on, for
	// as long as the flow was active; from then on it reads as 0.
	first int
	rates []float64
}

// deactivate releases the flow's bandwidth; its series reads 0 from here.
func (f *flowState) deactivate() {
	f.Active = false
	f.RateMbps = 0
	for i := range f.SubRates {
		f.SubRates[i] = 0
	}
}

// Config tunes the emulator.
type Config struct {
	// TickSeconds is the simulation step (default 0.1 s).
	TickSeconds float64
	// RampMbpsPerSec bounds how fast a flow's rate may grow per second of
	// simulated time, approximating TCP ramp-up (default 40).
	RampMbpsPerSec float64
	// QueueFactorMs scales the utilization-dependent queueing delay
	// q = QueueFactorMs · u/(1-u) per link (default 0.5 ms).
	QueueFactorMs float64
	// MaxQueueMs caps the queueing delay per link (default 50 ms).
	MaxQueueMs float64
	// RecordLinkSeries enables per-link utilization recording.
	RecordLinkSeries bool
}

func (c Config) withDefaults() Config {
	if c.TickSeconds <= 0 {
		c.TickSeconds = 0.1
	}
	if c.RampMbpsPerSec <= 0 {
		c.RampMbpsPerSec = 40
	}
	if c.QueueFactorMs <= 0 {
		c.QueueFactorMs = 0.5
	}
	if c.MaxQueueMs <= 0 {
		c.MaxQueueMs = 50
	}
	return c
}

// Emulator is the simulation engine. All methods are safe for concurrent
// use; the control-plane services drive it from several goroutines.
type Emulator struct {
	mu   sync.Mutex
	topo *topo.Topology
	cfg  Config
	now  float64

	// flows holds every flow ever added, flows[id-1]; active lists the
	// ones still running, in creation order (a stopped flow leaves it at
	// the next tick).
	flows  []*flowState
	active []*flowState
	// ticks is the clock after each tick: the time axis every recorded
	// series shares.
	ticks []float64

	// Per-link state, indexed by topo.Link.Index. The emulator serves the
	// links the topology had when New was called.
	capacity  []float64
	delayMs   []float64
	down      []bool    // failed links (see failure.go)
	lastAlloc []float64 // Mbps allocated in the last tick
	// linkUtil, under cfg.RecordLinkSeries, holds len(capacity)
	// utilizations per tick: link l at tick k is linkUtil[k*len(capacity)+l].
	linkUtil []float64

	// Scratch reused from tick to tick and from probe to probe.
	units []allocUnit
	fill  filler
	probe []int32

	events    []event
	dueBuf    []event
	validator func(topo.Path) error
}

type event struct {
	at float64
	fn func(*Emulator)
}

// New creates an emulator over the given topology.
func New(t *topo.Topology, cfg Config) *Emulator {
	links := t.Links()
	e := &Emulator{
		topo:      t,
		cfg:       cfg.withDefaults(),
		capacity:  make([]float64, len(links)),
		delayMs:   make([]float64, len(links)),
		down:      make([]bool, len(links)),
		lastAlloc: make([]float64, len(links)),
		fill:      newFiller(len(links)),
	}
	for _, l := range links {
		e.capacity[l.Index()] = l.Attrs.CapacityMbps
		e.delayMs[l.Index()] = l.Attrs.DelayMs
	}
	return e
}

// Topology returns the emulator's topology.
func (e *Emulator) Topology() *topo.Topology { return e.topo }

// Now returns the current simulation time in seconds.
func (e *Emulator) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// SetPathValidator installs a hook invoked with every path a flow is placed
// on (AddFlow and Reroute). The control plane uses it to assert that the
// PolKA data plane would steer packets along exactly that path.
func (e *Emulator) SetPathValidator(v func(topo.Path) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.validator = v
}

// resolveLocked maps the path onto the indices of its directed links, in
// order. The result is the emulator's probe scratch: valid until the next
// call, so a caller that keeps it copies it. Caller holds e.mu.
func (e *Emulator) resolveLocked(p topo.Path) ([]int32, error) {
	if len(p.Nodes) < 2 {
		return nil, fmt.Errorf("netem: path %v too short", p.Nodes)
	}
	links := e.probe[:0]
	for i := 0; i+1 < len(p.Nodes); i++ {
		idx, err := e.hopLocked(p.Nodes[i], p.Nodes[i+1])
		if err != nil {
			return nil, err
		}
		links = append(links, idx)
	}
	e.probe = links
	return links, nil
}

// linkByIDLocked returns the index of the directed link named "from->to".
func (e *Emulator) linkByIDLocked(linkID string) (int32, bool) {
	from, to, ok := strings.Cut(linkID, "->")
	if !ok {
		return 0, false
	}
	l, err := e.hopLocked(from, to)
	return l, err == nil
}

// hopLocked returns the index of the directed link from→to.
func (e *Emulator) hopLocked(from, to string) (int32, error) {
	l, err := e.topo.Link(from, to)
	if err != nil {
		return 0, err
	}
	if l.Index() >= len(e.capacity) {
		return 0, fmt.Errorf("netem: link %s was added after the emulator was created", l.ID())
	}
	return int32(l.Index()), nil
}

// compileLocked validates a path against the topology, the spec endpoints
// and the installed validator, and returns its links. Caller holds e.mu.
func (e *Emulator) compileLocked(spec FlowSpec, p topo.Path) ([]int32, error) {
	if len(p.Nodes) < 2 {
		return nil, fmt.Errorf("netem: path %v too short", p.Nodes)
	}
	if p.Nodes[0] != spec.Src || p.Nodes[len(p.Nodes)-1] != spec.Dst {
		return nil, fmt.Errorf("netem: path %v does not connect %s to %s", p, spec.Src, spec.Dst)
	}
	links, err := e.resolveLocked(p)
	if err != nil {
		return nil, err
	}
	if e.validator != nil {
		if err := e.validator(p); err != nil {
			return nil, fmt.Errorf("netem: path rejected by data plane: %w", err)
		}
	}
	// The flow keeps the list; the scratch it was resolved into is reused.
	return append([]int32(nil), links...), nil
}

// AddFlow injects a flow and returns its ID. The flow starts at the current
// simulation time with rate 0 and ramps up from the next tick.
func (e *Emulator) AddFlow(spec FlowSpec) (FlowID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(spec.MultiPaths) > 0 && spec.DemandMbps != 0 {
		return 0, errors.New("netem: multipath flows must be greedy (DemandMbps = 0)")
	}
	paths := spec.MultiPaths
	if len(paths) == 0 {
		paths = []topo.Path{spec.Path}
	}
	subs := make([][]int32, len(paths))
	for i, p := range paths {
		links, err := e.compileLocked(spec, p)
		if err != nil {
			return 0, err
		}
		subs[i] = links
	}
	if spec.DemandMbps < 0 {
		return 0, errors.New("netem: negative demand")
	}
	if spec.SizeMB < 0 {
		return 0, errors.New("netem: negative flow size")
	}
	f := &flowState{
		Flow: Flow{ID: FlowID(len(e.flows) + 1), Spec: spec, Active: true, CompletedAt: -1,
			SubRates: make([]float64, len(subs))},
		subs:  subs,
		first: len(e.ticks),
	}
	e.flows = append(e.flows, f)
	e.active = append(e.active, f)
	return f.ID, nil
}

// flowLocked looks a flow up by ID. Caller holds e.mu.
func (e *Emulator) flowLocked(id FlowID) (*flowState, error) {
	if id < 1 || int(id) > len(e.flows) {
		return nil, fmt.Errorf("netem: unknown flow %d", id)
	}
	return e.flows[id-1], nil
}

// Reroute moves a flow onto a new path. This models the single PBR update
// at the ingress edge: the flow keeps its identity, counters and current
// rate (subject to the new path's fair share from the next tick on).
func (e *Emulator) Reroute(id FlowID, p topo.Path) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, err := e.flowLocked(id)
	if err != nil {
		return err
	}
	if len(f.Spec.MultiPaths) > 0 {
		return fmt.Errorf("netem: flow %d is multipath; reroute by replacing it", id)
	}
	links, err := e.compileLocked(f.Spec, p)
	if err != nil {
		return err
	}
	f.Spec.Path = p
	f.subs[0] = links
	return nil
}

// StopFlow deactivates a flow; its series remains queryable.
func (e *Emulator) StopFlow(id FlowID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, err := e.flowLocked(id)
	if err != nil {
		return err
	}
	f.deactivate()
	return nil
}

// Flow returns a snapshot of the flow's state.
func (e *Emulator) Flow(id FlowID) (Flow, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, err := e.flowLocked(id)
	if err != nil {
		return Flow{}, err
	}
	return f.snapshot(), nil
}

// snapshot deep-copies the flow state.
func (f *Flow) snapshot() Flow {
	c := *f
	c.SubRates = make([]float64, len(f.SubRates))
	copy(c.SubRates, f.SubRates)
	return c
}

// Flows returns snapshots of all flows in creation order.
func (e *Emulator) Flows() []Flow {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Flow, 0, len(e.flows))
	for _, f := range e.flows {
		out = append(out, f.snapshot())
	}
	return out
}

// Schedule registers fn to run at simulation time at (or at the first tick
// boundary after it). Events run before the tick's allocation, so a
// reroute scheduled at t takes effect in the allocation of tick t. Events
// due at the same instant run in the order they were scheduled.
func (e *Emulator) Schedule(at float64, fn func(*Emulator)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := sort.Search(len(e.events), func(i int) bool { return e.events[i].at > at })
	e.events = append(e.events, event{})
	copy(e.events[i+1:], e.events[i:])
	e.events[i] = event{at: at, fn: fn}
}

// Step advances the simulation by one tick.
func (e *Emulator) Step() {
	e.mu.Lock()
	due := e.takeDueLocked()
	e.mu.Unlock()
	// Events run without the lock so they may call emulator methods.
	for _, ev := range due {
		ev.fn(e)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if due != nil {
		clear(due)
		e.dueBuf = due[:0]
	}
	e.stepLocked()
}

// takeDueLocked removes and returns the events scheduled at or before the
// current time. The result is the emulator's due buffer, taken out of the
// emulator while the events run unlocked; Step hands it back.
func (e *Emulator) takeDueLocked() []event {
	n := 0
	for n < len(e.events) && e.events[n].at <= e.now+1e-9 {
		n++
	}
	if n == 0 {
		return nil
	}
	due := append(e.dueBuf[:0], e.events[:n]...)
	e.dueBuf = nil
	rest := copy(e.events, e.events[n:])
	clear(e.events[rest:])
	e.events = e.events[:rest]
	return due
}

// RunUntilContext advances the simulation until the clock reaches t,
// checking ctx between ticks so arbitrarily long runs abort promptly on
// cancellation. The clock stops at a tick boundary; the emulator stays
// usable after an aborted run.
func (e *Emulator) RunUntilContext(ctx context.Context, t float64) error {
	for e.Now()+1e-9 < t {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.Step()
	}
	return nil
}

// RunForContext advances the simulation by d seconds under ctx.
func (e *Emulator) RunForContext(ctx context.Context, d float64) error {
	return e.RunUntilContext(ctx, e.Now()+d)
}

// stepLocked performs one allocation tick. Caller holds e.mu.
func (e *Emulator) stepLocked() {
	tick := e.cfg.TickSeconds
	// Effective demand this tick: TCP-like additive ramp toward the cap,
	// per subpath (each subpath of a multipath flow ramps independently,
	// like one subflow of an MPTCP connection). Flows stopped since the
	// last tick leave the active list here.
	units := e.units[:0]
	live := e.active[:0]
	for _, f := range e.active {
		if !f.Active {
			continue
		}
		live = append(live, f)
		for sub, links := range f.subs {
			demand := f.SubRates[sub] + e.cfg.RampMbpsPerSec*tick
			if f.Spec.DemandMbps > 0 && demand > f.Spec.DemandMbps {
				demand = f.Spec.DemandMbps
			}
			if e.anyDownLocked(links) {
				// A failed link blackholes the subpath until rerouted.
				demand = 0
			}
			units = append(units, allocUnit{flow: f, sub: sub, demand: demand, links: links})
		}
	}
	e.setActiveLocked(live)
	e.fill.run(units, e.capacity)

	// Apply rates and advance counters.
	e.now += tick
	clear(e.lastAlloc)
	for _, f := range e.active {
		f.RateMbps = 0
	}
	for i := range units {
		u := &units[i]
		f := u.flow
		f.SubRates[u.sub] = u.rate
		f.RateMbps += u.rate
		f.Bytes += u.rate * 1e6 / 8 * tick
		for _, l := range u.links {
			e.lastAlloc[l] += u.rate
		}
	}
	clear(units) // drop the flow pointers
	e.units = units[:0]

	// Finite flows complete once their volume is delivered; the others
	// record the tick's rate.
	live = e.active[:0]
	for _, f := range e.active {
		if f.Spec.SizeMB > 0 && f.Bytes >= f.Spec.SizeMB*1e6 {
			f.deactivate()
			f.CompletedAt = e.now
			continue
		}
		f.rates = append(f.rates, f.RateMbps)
		live = append(live, f)
	}
	e.setActiveLocked(live)
	e.ticks = append(e.ticks, e.now)
	if e.cfg.RecordLinkSeries {
		for l, c := range e.capacity {
			e.linkUtil = append(e.linkUtil, e.lastAlloc[l]/c)
		}
	}
}

// setActiveLocked installs live, a filtered prefix of e.active built in
// place, as the active list.
func (e *Emulator) setActiveLocked(live []*flowState) {
	clear(e.active[len(live):])
	e.active = live
}

// seriesLocked renders samples taken on the tick axis from ticks[first]
// on as a series; ticks past the end of values read as 0.
func (e *Emulator) seriesLocked(first int, value func(k int) float64) *timeseries.Series {
	s := &timeseries.Series{}
	for k, t := range e.ticks[first:] {
		s.MustAppend(t, value(k))
	}
	return s
}

// FlowSeries returns the flow's throughput series (Mbps per tick).
func (e *Emulator) FlowSeries(id FlowID) (*timeseries.Series, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, err := e.flowLocked(id)
	if err != nil {
		return nil, err
	}
	return e.seriesLocked(f.first, func(k int) float64 {
		if k < len(f.rates) {
			return f.rates[k]
		}
		return 0 // stopped or completed
	}), nil
}

// LinkUtilSeries returns a link's utilization series (0..1 per tick);
// recording must have been enabled in the config.
func (e *Emulator) LinkUtilSeries(linkID string) (*timeseries.Series, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.cfg.RecordLinkSeries {
		return nil, errors.New("netem: link series recording disabled")
	}
	l, ok := e.linkByIDLocked(linkID)
	if !ok {
		return nil, fmt.Errorf("netem: unknown link %q", linkID)
	}
	return e.seriesLocked(0, func(k int) float64 {
		return e.linkUtil[k*len(e.capacity)+int(l)]
	}), nil
}

// LinkAllocatedMbps returns the Mbps allocated on a directed link in the
// last tick.
func (e *Emulator) LinkAllocatedMbps(linkID string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if l, ok := e.linkByIDLocked(linkID); ok {
		return e.lastAlloc[l]
	}
	return 0
}

// PathAvailableMbps estimates the residual capacity of a path: the minimum
// over its links of capacity minus current allocation. This is the
// bandwidth metric the telemetry service samples for Hecate.
func (e *Emulator) PathAvailableMbps(p topo.Path) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	links, err := e.resolveLocked(p)
	if err != nil {
		return 0, err
	}
	avail := math.Inf(1)
	for _, l := range links {
		if e.down[l] {
			return 0, nil
		}
		r := e.capacity[l] - e.lastAlloc[l]
		if r < 0 {
			r = 0
		}
		if r < avail {
			avail = r
		}
	}
	return avail, nil
}

// PathMaxUtilization returns the highest link utilization (0..1) along
// the path in the last tick — the min-max objective's telemetry metric. A
// failed link counts as fully utilized.
func (e *Emulator) PathMaxUtilization(p topo.Path) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	links, err := e.resolveLocked(p)
	if err != nil {
		return 0, err
	}
	maxU := 0.0
	for _, l := range links {
		if e.down[l] {
			return 1, nil
		}
		u := e.lastAlloc[l] / e.capacity[l]
		if u > maxU {
			maxU = u
		}
	}
	return maxU, nil
}

// ProbeRTTms measures the round-trip time of an ICMP-like probe along the
// path: propagation both ways plus a queueing term that grows with link
// utilization (q = QueueFactorMs·u/(1-u), capped). This is what the first
// testbed experiment's ping loop observes.
func (e *Emulator) ProbeRTTms(p topo.Path) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fwd, err := e.resolveLocked(p)
	if err != nil {
		return 0, err
	}
	rtt := 0.0
	down := false
	add := func(l int32) {
		if e.down[l] {
			down = true
			return
		}
		rtt += e.delayMs[l]
		u := e.lastAlloc[l] / e.capacity[l]
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
	// Reverse direction.
	for i := len(p.Nodes) - 1; i > 0; i-- {
		l, err := e.hopLocked(p.Nodes[i], p.Nodes[i-1])
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

// TotalActiveMbps sums the current rates of the given flows (all active
// flows when none specified) — the "total throughput" series of the flow
// aggregation experiment.
func (e *Emulator) TotalActiveMbps(ids ...FlowID) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0.0
	if len(ids) == 0 {
		for _, f := range e.active {
			if f.Active {
				total += f.RateMbps
			}
		}
		return total
	}
	for _, id := range ids {
		if f, err := e.flowLocked(id); err == nil && f.Active {
			total += f.RateMbps
		}
	}
	return total
}
