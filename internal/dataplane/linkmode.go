package dataplane

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/bits"

	"repro/internal/link"
	"repro/internal/topo"
)

// fullLink is one directed full-tier link: the wire leaving node src
// through port, toward either another switch (dst ≥ 0) or a delivery
// endpoint (dst == egressLink).
type fullLink struct {
	src  int32
	port uint64
	dst  int32
	path *link.FullPath
	// dueAt and duePass are the link's key in fullState.due while pos ≥ 0,
	// its position there; see fullState.file.
	dueAt   link.Time
	duePass uint32
	pos     int32
	// dirty marks a link offered a frame since the last Reset.
	dirty bool
}

// fullState is the engine's LinkFull machinery: one FullPath per directed
// link, an arena of in-flight packets (Frame.Seq carries the arena slot,
// so no per-hop boxing allocates), the virtual clock, and the event core —
// a min-heap of the links holding frames, keyed by earliest arrival.
type fullState struct {
	links  []fullLink
	byPort [][]int32 // node index → port → index into links, or -1
	arena  []Packet
	free   []int32
	now    link.Time
	// inFlight counts packets currently on a wire (arena occupancy).
	inFlight int
	// due is a binary min-heap of link indices ordered by (dueAt, duePass,
	// index). An event step drains the links due at now in increasing
	// index, once each: pass numbers the steps taken at the instant now,
	// and cursor is the link being drained (-1 between steps).
	due    []int32
	pass   uint32
	cursor int32
	// dirty lists the links Reset has to touch.
	dirty []int32
}

// resolveLinkConfig applies the template semantics of Config.Link to one
// directed link: > 0 fixes the value, 0 inherits the topology attribute,
// < 0 means infinite rate / zero delay.
func resolveLinkConfig(tmpl link.FullConfig, attrs topo.LinkAttrs, seed int64) link.FullConfig {
	cfg := tmpl
	switch {
	case tmpl.RateMbps == 0:
		cfg.RateMbps = attrs.CapacityMbps
	case tmpl.RateMbps < 0:
		cfg.RateMbps = 0 // FullPath treats ≤ 0 as infinite
	}
	switch {
	case tmpl.DelayMs == 0:
		cfg.DelayMs = attrs.DelayMs
	case tmpl.DelayMs < 0:
		cfg.DelayMs = 0
	}
	cfg.Seed = seed
	return cfg
}

// linkSeed derives the private seed of one directed link from the engine
// seed, so link randomness is stable under topology growth and
// independent across links.
func linkSeed(engineSeed int64, from, to string) int64 {
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	return link.SplitSeed(engineSeed, h.Sum64())
}

// newFullState builds one FullPath per directed link of the forwarding
// plane, including egress links toward delivery endpoints.
func newFullState(e *Engine) (*fullState, error) {
	fs := &fullState{byPort: make([][]int32, len(e.nodes)), cursor: -1}
	for i, ns := range e.nodes {
		ports := make([]int32, len(ns.next))
		for port := range ports {
			ports[port] = -1
		}
		for port := 1; port < len(ns.next); port++ {
			if ns.next[port] == noLink {
				continue
			}
			tl, err := e.topo.Link(ns.name, ns.neighbor[port])
			if err != nil {
				return nil, fmt.Errorf("dataplane: link state for %s port %d: %w", ns.name, port, err)
			}
			cfg := resolveLinkConfig(e.cfg.Link, tl.Attrs, linkSeed(e.cfg.Seed, ns.name, ns.neighbor[port]))
			ports[port] = int32(len(fs.links))
			fs.links = append(fs.links, fullLink{
				src:  int32(i),
				port: uint64(port),
				dst:  ns.next[port],
				path: link.NewFullPath(cfg),
				pos:  -1,
			})
		}
		fs.byPort[i] = ports
	}
	return fs, nil
}

// alloc stores a packet in the arena and returns its slot.
func (fs *fullState) alloc(pkt Packet) int32 {
	if n := len(fs.free); n > 0 {
		slot := fs.free[n-1]
		fs.free = fs.free[:n-1]
		fs.arena[slot] = pkt
		return slot
	}
	fs.arena = append(fs.arena, pkt)
	return int32(len(fs.arena) - 1)
}

// release frees an arena slot.
func (fs *fullState) release(slot int32) {
	fs.arena[slot] = Packet{}
	fs.free = append(fs.free, slot)
}

// dueLess orders two links of the due heap.
func (fs *fullState) dueLess(a, b int32) bool {
	la, lb := &fs.links[a], &fs.links[b]
	if la.dueAt != lb.dueAt {
		return la.dueAt < lb.dueAt
	}
	if la.duePass != lb.duePass {
		return la.duePass < lb.duePass
	}
	return a < b
}

// dueSet stores link li at heap position i.
func (fs *fullState) dueSet(i int, li int32) {
	fs.due[i] = li
	fs.links[li].pos = int32(i)
}

// dueFix restores heap order around position i after its key changed.
func (fs *fullState) dueFix(i int) {
	li := fs.due[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !fs.dueLess(li, fs.due[parent]) {
			break
		}
		fs.dueSet(i, fs.due[parent])
		i = parent
	}
	for n := len(fs.due); ; {
		c := 2*i + 1
		if c+1 < n && fs.dueLess(fs.due[c+1], fs.due[c]) {
			c++
		}
		if c >= n || !fs.dueLess(fs.due[c], li) {
			break
		}
		fs.dueSet(i, fs.due[c])
		i = c
	}
	fs.dueSet(i, li)
}

// file makes link li's entry in the due heap match the link: absent when
// it holds no frame, else keyed by its earliest arrival. A link that comes
// due at now while the step's cursor is at or past it is filed one pass
// later — it waits for the next step, as a scan of the links in index
// order would have passed it already.
func (fs *fullState) file(li int32) {
	l := &fs.links[li]
	at, ok := l.path.Next()
	switch {
	case ok:
		pass := uint32(0)
		if at <= fs.now {
			pass = fs.pass
			if li <= fs.cursor {
				pass++
			}
		}
		if l.pos < 0 {
			fs.due = append(fs.due, li)
			l.pos = int32(len(fs.due) - 1)
		} else if at == l.dueAt && pass == l.duePass {
			return // a later frame joined a link already filed
		}
		l.dueAt, l.duePass = at, pass
		fs.dueFix(int(l.pos))
	case l.pos >= 0:
		i, last := int(l.pos), len(fs.due)-1
		l.pos = -1
		moved := fs.due[last]
		fs.due = fs.due[:last]
		if i < last {
			fs.dueSet(i, moved)
			fs.dueFix(i)
		}
	}
}

// reset returns the link tier to its state after New: the links an op
// touched idle and re-seeded, the clock at zero, every buffer kept.
func (fs *fullState) reset() {
	for _, li := range fs.dirty {
		l := &fs.links[li]
		l.path.Reset()
		l.pos, l.dirty = -1, false
	}
	fs.dirty, fs.due = fs.dirty[:0], fs.due[:0]
	if fs.inFlight > 0 {
		clear(fs.arena) // an aborted Run left packets on wires
	}
	fs.arena, fs.free = fs.arena[:0], fs.free[:0]
	fs.now, fs.inFlight, fs.pass, fs.cursor = 0, 0, 0, -1
}

// LinkStats returns the full-tier counters of the directed link from→to.
// It errors in fast mode or when no such link exists in the forwarding
// plane.
func (e *Engine) LinkStats(from, to string) (link.Stats, error) {
	if e.full == nil {
		return link.Stats{}, fmt.Errorf("dataplane: LinkStats requires LinkFull mode")
	}
	idx, ok := e.index[from]
	if !ok {
		return link.Stats{}, fmt.Errorf("dataplane: %q is not a forwarding node", from)
	}
	for _, li := range e.full.byPort[idx] {
		if li >= 0 && e.nodes[idx].neighbor[e.full.links[li].port] == to {
			return e.full.links[li].path.Stats(), nil
		}
	}
	return link.Stats{}, fmt.Errorf("dataplane: no link %s->%s in the forwarding plane", from, to)
}

// VirtualNow returns the engine's virtual clock (zero in fast mode; full
// mode advances it as Run processes arrivals).
func (e *Engine) VirtualNow() link.Time {
	if e.full == nil {
		return 0
	}
	return e.full.now
}

// runFull is the LinkFull execution loop. Freshly injected packets are
// forwarded at the current virtual time; every inter-switch (and egress)
// handoff goes through that link's FullPath, so frames serialize, queue,
// propagate, and may be lost. The loop then repeatedly advances the clock
// to the earliest pending arrival — the top of the due heap — and takes
// one event step: every link due at that instant is drained, in increasing
// link index, and re-filed under its next arrival. A frame forwarded
// during the step onto a link the step has not reached yet is handled in
// the same step; one landing at or behind the cursor waits for the next
// step at the same instant (see fullState.file). A step costs
// O(log links holding frames) per link drained and never visits an idle
// link; the order is fully deterministic for a given Config.Seed and
// inject schedule. Stats.Rounds counts event steps here.
func (e *Engine) runFull(ctx context.Context) (Stats, error) {
	fs := e.full
	for i, ns := range e.nodes {
		for _, pkt := range ns.queue {
			e.forwardFull(i, ns, pkt, fs.now)
		}
		ns.queue = ns.queue[:0]
	}
	e.pending = 0
	for len(fs.due) > 0 { // ⇔ fs.inFlight > 0: a link holding a frame is filed
		select {
		case <-ctx.Done():
			return e.stats, ctx.Err()
		default:
		}
		e.stats.Rounds++
		if next := fs.links[fs.due[0]].dueAt; next > fs.now {
			fs.now, fs.pass = next, 0
		}
		for len(fs.due) > 0 {
			li := fs.due[0]
			l := &fs.links[li]
			if l.dueAt > fs.now || l.dueAt == fs.now && l.duePass > fs.pass {
				break
			}
			fs.cursor = li
			for {
				if n := e.inFlight(); n > e.cfg.MaxInFlight {
					// Leave the heap describing li's remaining frames.
					fs.cursor = -1
					fs.file(li)
					return e.stats, e.errCap(n)
				}
				f, ok := l.path.Pop(fs.now)
				if !ok {
					break
				}
				e.arriveFull(l, f)
			}
			fs.file(li)
		}
		fs.cursor = -1
		fs.pass++
	}
	return e.stats, nil
}

// forwardFull executes one forwarding decision at node idx at virtual
// time now — the full-mode mirror of forward, emitting through links
// instead of round buffers.
func (e *Engine) forwardFull(idx int, ns *nodeState, pkt Packet, now link.Time) {
	ns.stats.Rx++
	e.stats.Hops++
	if pkt.TTL <= 0 {
		ns.stats.TTLDrops++
		e.stats.TTLDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, TTL: 0, Drop: DropTTL})
		return
	}
	if pkt.Mode == PoT && pkt.Proof != nil {
		acc, err := pkt.Proof.Accumulate(pkt.Acc, ns.name, pkt.Nonce)
		if err != nil {
			ns.stats.PoTDrops++
			e.stats.PoTDrops++
			e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, TTL: pkt.TTL, Drop: DropPoT})
			return
		}
		pkt.Acc = acc
	}
	residue := ns.sw.OutputPortBytes(pkt.RouteID)
	if pkt.Mode != Multicast {
		e.emitFull(idx, ns, pkt, residue, now)
		return
	}
	for mask := residue; mask != 0; mask &= mask - 1 {
		port := uint64(bits.TrailingZeros64(mask))
		e.emitFull(idx, ns, pkt, port, now)
	}
}

// emitFull offers one copy of pkt to the link out of port at virtual time
// now. A forwarded packet's Tx/Egress counters tick when the wire accepts
// it; a delivered packet's accounting (PoT verification included) is
// deferred to its arrival instant in arriveFull, which is what keeps
// per-node counters identical to fast mode on loss-free links.
func (e *Engine) emitFull(idx int, ns *nodeState, pkt Packet, port uint64, now link.Time) {
	if port == 0 || port >= uint64(len(ns.next)) || ns.next[port] == noLink {
		ns.stats.BadPortDrops++
		e.stats.BadPortDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port, TTL: pkt.TTL, Drop: DropBadPort})
		return
	}
	pkt.TTL--
	fs := e.full
	li := fs.byPort[idx][port]
	l := &fs.links[li]
	if !l.dirty {
		l.dirty = true
		fs.dirty = append(fs.dirty, li)
	}
	slot := fs.alloc(pkt)
	switch l.path.Send(now, link.Frame{Seq: uint64(slot), Size: pkt.Size}) {
	case link.DropQueue:
		fs.release(slot)
		ns.stats.QueueDrops++
		e.stats.QueueDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port, TTL: pkt.TTL, Drop: DropQueue})
	case link.DropLoss:
		fs.release(slot)
		ns.stats.LossDrops++
		e.stats.LossDrops++
		e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port, TTL: pkt.TTL, Drop: DropLoss})
	case link.Accepted:
		fs.inFlight++
		fs.file(li)
		if l.dst >= 0 {
			ns.stats.Tx++
			ns.stats.Egress[port]++
			e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: port,
				Next: ns.neighbor[port], TTL: pkt.TTL})
		}
	}
}

// arriveFull processes one frame arrival: onward packets take their next
// forwarding decision at the arrival instant; egress packets run delivery
// accounting (and PoT verification) attributed to the sending switch,
// exactly as the fast tier does at emit time.
func (e *Engine) arriveFull(l *fullLink, f link.Frame) {
	fs := e.full
	slot := int32(f.Seq)
	pkt := fs.arena[slot]
	fs.release(slot)
	fs.inFlight--
	pkt.ArrivalNs = int64(f.Arrival)
	if l.dst >= 0 {
		e.forwardFull(int(l.dst), e.nodes[l.dst], pkt, f.Arrival)
		return
	}
	ns := e.nodes[l.src]
	pkt.Egress = ns.neighbor[l.port]
	if pkt.Mode == PoT && pkt.Proof != nil {
		if err := pkt.Proof.Verify(pkt.Acc, pkt.Nonce); err != nil {
			ns.stats.PoTDrops++
			e.stats.PoTDrops++
			e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: l.port,
				Next: pkt.Egress, TTL: pkt.TTL, Drop: DropPoT})
			return
		}
		e.stats.PoTVerified++
	}
	ns.stats.Tx++
	ns.stats.Egress[l.port]++
	ns.stats.Delivered++
	e.stats.Delivered++
	e.stats.DeliveredBytes += uint64(pkt.Size)
	e.deliv = append(e.deliv, pkt)
	e.trace(TraceEvent{PacketID: pkt.ID, Node: ns.name, Port: l.port,
		Next: pkt.Egress, TTL: pkt.TTL, Delivered: true})
}
