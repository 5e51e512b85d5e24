package dataplane

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/polka"
	"repro/internal/topo"
)

// noLink marks a port index with no attached link.
const noLink int32 = -2

// egressLink marks a port whose neighbor is outside the forwarding domain:
// sending there delivers the packet.
const egressLink int32 = -1

// nodeState is the engine's per-switch state. The engine runs on the
// calling goroutine, so none of it is locked.
type nodeState struct {
	name string
	sw   *polka.Switch
	// next maps output port → engine node index of the neighbor, or
	// egressLink / noLink. Index 0 is always noLink (ports are 1-based).
	next []int32
	// neighbor maps output port → neighbor name ("" when unused).
	neighbor []string
	queue    []Packet
	stats    NodeStats
}

// Engine is the packet-level forwarding engine. The external API (Inject,
// Run, Delivered, ...) is meant to be driven from one goroutine: configure,
// inject, run, inspect. Run does all its work on that goroutine.
type Engine struct {
	topo    *topo.Topology
	domain  *polka.Domain
	cfg     Config
	nodes   []*nodeState
	index   map[string]int
	nextID  uint64
	pending int
	stats   Stats
	deliv   []Packet
	full    *fullState // nil unless Config.LinkMode == LinkFull
	// batches recycles round input arrays: each round a node's queue is
	// swapped against its consumed batch from the previous round, so
	// queue growth amortizes to zero instead of re-appending from nil.
	batches [][]Packet
	// buf is the round buffer, truncated and reused round over round and
	// run over run, so steady-state forwarding allocates nothing.
	buf roundBuf
}

// New builds an engine over the topology. Every node of the domain (the
// configured one, or the default core-node domain) must exist in the
// topology; those nodes become the forwarding plane, and every other node
// is a delivery endpoint.
func New(t *topo.Topology, cfg Config) (*Engine, error) {
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("dataplane: the engine is serial; Workers must be ≤ 1, got %d", cfg.Workers)
	}
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 64
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1 << 20
	}
	d := cfg.Domain
	if d == nil {
		cores := t.NodesOfKind(topo.Core)
		if len(cores) == 0 {
			return nil, fmt.Errorf("dataplane: topology has no core nodes and no domain was supplied")
		}
		var err error
		d, err = polka.NewDomain(cores, t.MaxPort())
		if err != nil {
			return nil, fmt.Errorf("dataplane: building default domain: %w", err)
		}
	}
	names := d.Nodes()
	e := &Engine{topo: t, domain: d, cfg: cfg,
		nodes: make([]*nodeState, 0, len(names)),
		index: make(map[string]int, len(names)),
	}
	for _, name := range names {
		if !t.HasNode(name) {
			return nil, fmt.Errorf("dataplane: domain node %q not in topology", name)
		}
		e.index[name] = len(e.nodes)
		e.nodes = append(e.nodes, &nodeState{name: name})
	}
	for _, ns := range e.nodes {
		sw, err := d.Switch(ns.name)
		if err != nil {
			return nil, err
		}
		ns.sw = sw
		n, err := t.Node(ns.name)
		if err != nil {
			return nil, err
		}
		deg := n.Degree()
		ns.next = make([]int32, deg+1)
		ns.neighbor = make([]string, deg+1)
		ns.next[0] = noLink
		for i, nb := range n.Neighbors() {
			port := i + 1
			ns.neighbor[port] = nb
			if idx, fwd := e.index[nb]; fwd {
				ns.next[port] = int32(idx)
			} else {
				ns.next[port] = egressLink
			}
		}
		ns.stats.Egress = make([]uint64, deg+1)
	}
	if cfg.LinkMode == LinkFull {
		fs, err := newFullState(e)
		if err != nil {
			return nil, err
		}
		e.full = fs
	}
	e.batches = make([][]Packet, len(e.nodes))
	return e, nil
}

// errCap is the unified in-flight-cap violation: every admission site
// (Inject, InjectBatch, Run, runFull) enforces the same boundary — the
// packet population may reach MaxInFlight exactly, and n > MaxInFlight is
// refused — and reports it with the same text.
func (e *Engine) errCap(n int) error {
	return fmt.Errorf("dataplane: %d packets in flight exceeds MaxInFlight %d (drain with Run or raise Config.MaxInFlight)",
		n, e.cfg.MaxInFlight)
}

// inFlight is the engine's total packet population: queued at forwarding
// nodes plus resident in the full-tier link arena (packets a canceled
// runFull left on wires).
func (e *Engine) inFlight() int {
	if e.full != nil {
		return e.pending + e.full.inFlight
	}
	return e.pending
}

// admit checks that k more packets fit under the cap.
func (e *Engine) admit(k int) error {
	if n := e.inFlight() + k; n > e.cfg.MaxInFlight {
		return e.errCap(n)
	}
	return nil
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *topo.Topology { return e.topo }

// Domain returns the PolKA domain the engine forwards with.
func (e *Engine) Domain() *polka.Domain { return e.domain }

// Inject queues one packet at the named forwarding node and returns its
// engine-assigned ID. The in-flight population (queued packets plus any
// the full link tier still holds on wires) may reach Config.MaxInFlight
// exactly; an injection that would exceed it is refused.
func (e *Engine) Inject(node string, pkt Packet) (uint64, error) {
	idx, ok := e.index[node]
	if !ok {
		return 0, fmt.Errorf("dataplane: %q is not a forwarding node", node)
	}
	if err := e.admit(1); err != nil {
		return 0, err
	}
	if pkt.TTL <= 0 {
		pkt.TTL = e.cfg.DefaultTTL
	}
	e.nextID++
	pkt.ID = e.nextID
	e.nodes[idx].queue = append(e.nodes[idx].queue, pkt)
	e.pending++
	e.stats.Injected++
	return pkt.ID, nil
}

// InjectBatch queues a batch of packets at the named forwarding node.
// Admission is atomic: either the whole batch fits under the in-flight cap
// and is queued, or the engine is left untouched — so a caller retrying a
// rejected batch after draining never double-injects a prefix of it.
func (e *Engine) InjectBatch(node string, pkts []Packet) error {
	idx, ok := e.index[node]
	if !ok {
		return fmt.Errorf("dataplane: %q is not a forwarding node", node)
	}
	if err := e.admit(len(pkts)); err != nil {
		return fmt.Errorf("batch of %d: %w", len(pkts), err)
	}
	q := e.nodes[idx].queue
	for i := range pkts {
		pkt := pkts[i]
		if pkt.TTL <= 0 {
			pkt.TTL = e.cfg.DefaultTTL
		}
		e.nextID++
		pkt.ID = e.nextID
		q = append(q, pkt)
	}
	e.nodes[idx].queue = q
	e.pending += len(pkts)
	e.stats.Injected += uint64(len(pkts))
	return nil
}

// Run forwards every queued packet to completion (delivery or drop) and
// returns the cumulative stats. In fast mode execution proceeds in
// hop-synchronous rounds: each round forwards every queued packet by
// exactly one hop, then merges the emitted packets into the destination
// queues. In full mode (Config.LinkMode == LinkFull) execution is an
// event-driven loop over per-link arrival times in virtual time — see
// runFull. Either way, TTL bounds the work per packet and
// Config.MaxInFlight bounds the population (a crafted multicast routeID
// could otherwise amplify geometrically), so Run terminates even on
// looping routeIDs. A canceled context stops between rounds (or event
// batches), leaving undelivered packets queued.
func (e *Engine) Run(ctx context.Context) (Stats, error) {
	if e.full != nil {
		return e.runFull(ctx)
	}
	for e.pending > 0 {
		select {
		case <-ctx.Done():
			return e.stats, ctx.Err()
		default:
		}
		e.stats.Rounds++
		e.pending = e.runRound()
		e.stats.add(e.buf.stats)
		e.deliv = append(e.deliv, e.buf.delivered...)
		if e.pending > e.cfg.MaxInFlight {
			return e.stats, e.errCap(e.pending)
		}
	}
	return e.stats, nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Delivered returns the packets delivered since the last Reset, in
// delivery order. The order is deterministic: each round sweeps the nodes
// in index order.
func (e *Engine) Delivered() []Packet {
	out := make([]Packet, len(e.deliv))
	copy(out, e.deliv)
	return out
}

// NodeStats returns a snapshot of one switch's counters.
func (e *Engine) NodeStats(name string) (NodeStats, error) {
	idx, ok := e.index[name]
	if !ok {
		return NodeStats{}, fmt.Errorf("dataplane: %q is not a forwarding node", name)
	}
	s := e.nodes[idx].stats
	eg := make([]uint64, len(s.Egress))
	copy(eg, s.Egress)
	s.Egress = eg
	return s, nil
}

// Reset clears all queues, counters and the delivered list, keeping the
// topology, domain, reducers — and the warmed round buffers and queue
// backing arrays, so an engine reused across benchmark iterations runs at
// steady state without reallocating. Full-mode link state is reset in
// place, and only on the links that were offered a frame since the last
// Reset: virtual clock back to zero, random streams re-seeded, the due heap
// and the arena emptied with their arrays kept — so a reset engine replays
// identically, whether or not the last Run completed.
func (e *Engine) Reset() {
	for _, ns := range e.nodes {
		ns.queue = ns.queue[:0]
		eg := ns.stats.Egress
		for i := range eg {
			eg[i] = 0
		}
		ns.stats = NodeStats{Egress: eg}
	}
	e.stats = Stats{}
	e.deliv = e.deliv[:0]
	e.pending = 0
	e.nextID = 0
	if e.full != nil {
		e.full.reset()
	}
}

// roundBuf collects a round's outputs — the count of packets bound for
// other switches, delivered packets, and counter deltas — plus the
// batch-forwarding scratch. It is truncated, never freed, so a warm engine
// forwards without allocating.
type roundBuf struct {
	outN      int // packets emitted to next-hop queues
	delivered []Packet
	stats     Stats
	rids      [][]byte // scratch: routeIDs of the batch under forwarding
	ports     []uint64 // scratch: per-packet forwarding residues
}

// reset truncates the buffers for a new round, keeping capacity.
func (b *roundBuf) reset() {
	b.outN = 0
	b.delivered = b.delivered[:0]
	b.stats = Stats{}
}

// runRound forwards every queued packet one hop. All queues are swapped
// out first — each against its recycled batch array from the previous
// round, so the pair of backing arrays ping-pongs with no reallocation —
// then every batch is forwarded with emit appending straight into the
// destination queues, so each packet is copied once per hop and none is
// re-forwarded within its round. Returns the next round's pending count.
func (e *Engine) runRound() int {
	buf := &e.buf
	buf.reset()
	for i, ns := range e.nodes {
		batch := ns.queue
		ns.queue = e.batches[i][:0]
		e.batches[i] = batch
	}
	for i, ns := range e.nodes {
		if batch := e.batches[i]; len(batch) > 0 {
			e.forwardBatch(ns, batch, buf)
		}
	}
	return buf.outN
}

// forwardBatch executes the forwarding decisions for one node's ingress
// batch. The output ports of the whole batch come from a single
// Switch.OutputPortBatch call — runs of packets sharing a routeID cost
// one GF(2) reduction. Runs of live packets agreeing on the residue and
// mode are then moved in bulk (one append memmove plus a TTL fix-up
// sweep): a PoT run accumulates once and stamps the shared result, a
// multicast run bulk-replicates per one-hot port. Only TTL expiry and
// tracing fall back to the per-packet path.
func (e *Engine) forwardBatch(ns *nodeState, batch []Packet, buf *roundBuf) {
	buf.rids = buf.rids[:0]
	for j := range batch {
		buf.rids = append(buf.rids, batch[j].RouteID)
	}
	buf.ports = ns.sw.OutputPortBatch(buf.rids, buf.ports[:0])
	perPacket := e.cfg.Trace != nil
	j := 0
	for j < len(batch) {
		pkt := &batch[j]
		if perPacket || pkt.TTL <= 0 {
			e.forwardOne(ns, batch[j], buf.ports[j], buf)
			j++
			continue
		}
		// Maximal bulk run: alive packets agreeing on output residue and
		// mode — and, for PoT, on the whole proof state, so one
		// accumulation (and one egress verification) covers the run.
		residue := buf.ports[j]
		pot := pkt.Mode == PoT && pkt.Proof != nil
		k := j + 1
		for k < len(batch) {
			q := &batch[k]
			if buf.ports[k] != residue || q.Mode != pkt.Mode || q.TTL <= 0 {
				break
			}
			if pot && (q.Proof != pkt.Proof || !q.Nonce.Equal(pkt.Nonce) || !q.Acc.Equal(pkt.Acc)) {
				break
			}
			k++
		}
		run := batch[j:k]
		n := uint64(len(run))
		ns.stats.Rx += n
		buf.stats.Hops += n
		if pot {
			acc, err := pkt.Proof.Accumulate(pkt.Acc, ns.name, pkt.Nonce)
			if err != nil {
				// Off the protected path: misrouted PoT packets.
				ns.stats.PoTDrops += n
				buf.stats.PoTDrops += n
				j = k
				continue
			}
			for i := range run {
				run[i].Acc = acc
			}
		}
		if pkt.Mode != Multicast {
			e.emitRun(ns, run, residue, buf)
		} else {
			// Multicast: the residue is a one-hot port set; replicate the
			// whole run to each port.
			for mask := residue; mask != 0; mask &= mask - 1 {
				port := uint64(bits.TrailingZeros64(mask))
				e.emitRun(ns, run, port, buf)
			}
		}
		j = k
	}
}

// forwardOne executes one forwarding decision for pkt at node ns — the
// per-packet path of forwardBatch, with the output port already reduced.
func (e *Engine) forwardOne(ns *nodeState, pkt Packet, residue uint64, buf *roundBuf) {
	ns.stats.Rx++
	buf.stats.Hops++
	if pkt.TTL <= 0 {
		ns.stats.TTLDrops++
		buf.stats.TTLDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, TTL: 0, Drop: DropTTL})
		return
	}
	if pkt.Mode == PoT && pkt.Proof != nil {
		acc, err := pkt.Proof.Accumulate(pkt.Acc, ns.name, pkt.Nonce)
		if err != nil {
			// Off the protected path: a misrouted PoT packet.
			ns.stats.PoTDrops++
			buf.stats.PoTDrops++
			e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, TTL: pkt.TTL, Drop: DropPoT})
			return
		}
		pkt.Acc = acc
	}
	if pkt.Mode != Multicast {
		e.emit(ns, pkt, residue, buf)
		return
	}
	// Multicast: the residue is a one-hot port set; replicate to each port.
	for mask := residue; mask != 0; mask &= mask - 1 {
		port := uint64(bits.TrailingZeros64(mask))
		e.emit(ns, pkt, port, buf)
	}
}

// emitRun sends a run of live packets out of ns through one port: the run
// is appended in a single copy to its destination (next-hop queue or the
// delivered list) and the per-packet mutations
// (TTL decrement, egress stamp) are fixed up in place. Rx/Hops accounting
// happens once per run in forwardBatch, so multicast replication through
// repeated emitRun calls counts each packet's arrival once.
func (e *Engine) emitRun(ns *nodeState, run []Packet, port uint64, buf *roundBuf) {
	n := uint64(len(run))
	if port == 0 || port >= uint64(len(ns.next)) || ns.next[port] == noLink {
		ns.stats.BadPortDrops += n
		buf.stats.BadPortDrops += n
		return
	}
	dst := ns.next[port]
	if dst >= 0 {
		ns.stats.Tx += n
		ns.stats.Egress[port] += n
		q := append(e.nodes[dst].queue, run...)
		seg := q[len(q)-len(run):]
		for i := range seg {
			seg[i].TTL--
		}
		e.nodes[dst].queue = q
		buf.outN += len(run)
		return
	}
	// Delivery off-domain. A PoT run shares one (Acc, Nonce) — stamped by
	// forwardBatch — so one verification covers every packet in it.
	if run[0].Mode == PoT && run[0].Proof != nil {
		if err := run[0].Proof.Verify(run[0].Acc, run[0].Nonce); err != nil {
			ns.stats.PoTDrops += n
			buf.stats.PoTDrops += n
			return
		}
		buf.stats.PoTVerified += n
	}
	egress := ns.neighbor[port]
	ns.stats.Tx += n
	ns.stats.Egress[port] += n
	ns.stats.Delivered += n
	buf.stats.Delivered += n
	for i := range run {
		buf.stats.DeliveredBytes += uint64(run[i].Size)
	}
	d := append(buf.delivered, run...)
	seg := d[len(d)-len(run):]
	for i := range seg {
		seg[i].TTL--
		seg[i].Egress = egress
	}
	buf.delivered = d
}

// emit sends one copy of pkt out of ns through port: onward to another
// switch, or delivered off-domain, or dropped on an invalid port.
func (e *Engine) emit(ns *nodeState, pkt Packet, port uint64, buf *roundBuf) {
	if port == 0 || port >= uint64(len(ns.next)) || ns.next[port] == noLink {
		ns.stats.BadPortDrops++
		buf.stats.BadPortDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port, TTL: pkt.TTL, Drop: DropBadPort})
		return
	}
	pkt.TTL--
	dst := ns.next[port]
	if dst >= 0 {
		ns.stats.Tx++
		ns.stats.Egress[port]++
		e.nodes[dst].queue = append(e.nodes[dst].queue, pkt)
		buf.outN++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port,
			Next: ns.neighbor[port], TTL: pkt.TTL})
		return
	}
	// Delivery off-domain.
	pkt.Egress = ns.neighbor[port]
	if pkt.Mode == PoT && pkt.Proof != nil {
		if err := pkt.Proof.Verify(pkt.Acc, pkt.Nonce); err != nil {
			ns.stats.PoTDrops++
			buf.stats.PoTDrops++
			e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port,
				Next: pkt.Egress, TTL: pkt.TTL, Drop: DropPoT})
			return
		}
		buf.stats.PoTVerified++
	}
	ns.stats.Tx++
	ns.stats.Egress[port]++
	ns.stats.Delivered++
	buf.stats.Delivered++
	buf.stats.DeliveredBytes += uint64(pkt.Size)
	buf.delivered = append(buf.delivered, pkt)
	e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port,
		Next: pkt.Egress, TTL: pkt.TTL, Delivered: true})
}

// trace invokes the trace hook when configured.
func (e *Engine) trace(ev TraceEvent) {
	if e.cfg.Trace != nil {
		e.cfg.Trace(ev)
	}
}
