package link

import "math/rand"

// FullConfig tunes a FullPath link.
type FullConfig struct {
	// RateMbps is the transmission capacity; frames serialize at this
	// rate, which is what creates transmission latency and queueing.
	// ≤ 0 means infinite (no serialization).
	RateMbps float64
	// DelayMs is the one-way propagation delay added after serialization.
	DelayMs float64
	// QueuePkts bounds the egress queue in frames (waiting plus
	// serializing); a full queue tail-drops. 0 means unbounded.
	QueuePkts int
	// Loss is the wire-loss model (zero value: lossless).
	Loss LossConfig
	// ReorderProb is the probability an accepted frame is held back by an
	// extra uniform jitter in (0, ReorderWindowMs), letting later frames
	// overtake it — bounded out-of-order delivery.
	ReorderProb float64
	// ReorderWindowMs bounds the reorder jitter.
	ReorderWindowMs float64
	// Seed seeds this link's private random stream.
	Seed int64
}

// inflight is one frame on the wire, keyed for the arrival heap by its
// stamped Arrival.
type inflight struct {
	order uint64 // insertion tie-break: equal arrivals deliver in send order
	frame Frame
}

// before orders frames by (arrival time, insertion order).
func (a inflight) before(b inflight) bool {
	if a.frame.Arrival != b.frame.Arrival {
		return a.frame.Arrival < b.frame.Arrival
	}
	return a.order < b.order
}

// arrivalHeap is a binary min-heap over (arrival time, insertion order),
// sifted on the concrete type: container/heap would box every inflight
// through an interface, two allocations per frame.
type arrivalHeap []inflight

func (h *arrivalHeap) push(it inflight) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
	*h = s
}

// pop removes the earliest frame; the heap must not be empty.
func (h *arrivalHeap) pop() inflight {
	s := *h
	top, n := s[0], len(s)-1
	it := s[n]
	s = s[:n]
	for i := 0; n > 0; {
		c := 2*i + 1
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if c >= n || !s[c].before(it) {
			s[i] = it
			break
		}
		s[i] = s[c]
		i = c
	}
	*h = s
	return top
}

// FullPath is the full tier: a per-link state machine modeling
// transmission latency, bounded tail-drop queueing, propagation delay,
// Bernoulli/Gilbert-Elliott wire loss, and bounded out-of-order delivery.
// All randomness comes from the config's Seed; given equal seeds and an
// equal Send schedule, two FullPaths produce byte-identical behavior.
type FullPath struct {
	cfg  FullConfig
	rng  *rand.Rand // nil on a link that never draws: no loss model, no reorder
	loss lossState

	lastTxEnd Time
	// txEnds[txHead:] are the serialization-completion times of the queued
	// frames. They are non-decreasing (each frame starts no earlier than
	// the previous one ended), so the frames done by now are a prefix.
	txEnds     []Time
	txHead     int
	flight     arrivalHeap
	order      uint64
	maxArrival Time
	stats      Stats
}

// NewFullPath builds a full-tier link.
func NewFullPath(cfg FullConfig) *FullPath {
	p := &FullPath{cfg: cfg, loss: lossState{cfg: cfg.Loss}}
	if cfg.Loss.Kind != LossNone || cfg.ReorderProb > 0 {
		p.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return p
}

// Reset returns the link to the state NewFullPath(p.Config()) builds —
// idle, counters zero, random stream re-seeded — keeping its buffers, so a
// link reused across runs replays identically without allocating.
func (p *FullPath) Reset() {
	if p.rng != nil {
		p.rng.Seed(p.cfg.Seed)
	}
	p.loss.bad = false
	p.lastTxEnd, p.maxArrival, p.order = 0, 0, 0
	p.txEnds, p.txHead = p.txEnds[:0], 0
	p.flight = p.flight[:0]
	p.stats = Stats{queueDelaysMs: p.stats.queueDelaysMs[:0]}
}

// Config returns the link's configuration.
func (p *FullPath) Config() FullConfig { return p.cfg }

// Send offers a frame to the link at virtual time now.
//
// The loss draw happens first and unconditionally (one draw per Send for
// the Bernoulli model), keeping the uniform stream aligned with the
// transmission index even across configs that differ only in loss rate —
// see lossState.drop. Tail-drop is then evaluated against the queue
// bound; a wire-lost frame that clears the queue still consumes
// serialization time (it was transmitted — the bandwidth is gone), which
// is precisely why loss hurts a congestion-limited sender smoothly
// instead of catastrophically.
func (p *FullPath) Send(now Time, f Frame) Verdict {
	lost := p.loss.drop(p.rng)

	// Frames that finished serializing leave at the head; what remains is
	// the queue.
	for p.txHead < len(p.txEnds) && p.txEnds[p.txHead] <= now {
		p.txHead++
	}
	depth := len(p.txEnds) - p.txHead
	if p.cfg.QueuePkts > 0 && depth >= p.cfg.QueuePkts {
		p.stats.QueueDrops++
		return DropQueue
	}
	// Slide the live entries down once the dead prefix outweighs them, so
	// the array stops growing at twice the deepest queue.
	if p.txHead > depth {
		p.txEnds = p.txEnds[:copy(p.txEnds, p.txEnds[p.txHead:])]
		p.txHead = 0
	}

	txStart := now
	if p.lastTxEnd > txStart {
		txStart = p.lastTxEnd
	}
	var txTime Time
	if p.cfg.RateMbps > 0 {
		// size bytes at R Mbit/s: size*8 / (R*1e6) s = size*8*1e3/R ns.
		txTime = Time(float64(f.Size) * 8 * 1e3 / p.cfg.RateMbps)
	}
	txEnd := txStart + txTime
	p.lastTxEnd = txEnd
	p.txEnds = append(p.txEnds, txEnd)
	if depth++; depth > p.stats.MaxQueueDepth {
		p.stats.MaxQueueDepth = depth
	}
	p.stats.queueDelaysMs = append(p.stats.queueDelaysMs, (txStart - now).Ms())

	if lost {
		p.stats.LossDrops++
		return DropLoss
	}

	arrival := txEnd + Ms(p.cfg.DelayMs)
	if p.cfg.ReorderProb > 0 && p.rng.Float64() < p.cfg.ReorderProb {
		arrival += Time(p.rng.Float64() * p.cfg.ReorderWindowMs * 1e6)
	}
	if arrival < p.maxArrival {
		p.stats.Reordered++
	} else {
		p.maxArrival = arrival
	}
	f.Arrival = arrival
	p.flight.push(inflight{order: p.order, frame: f})
	p.order++
	p.stats.Sent++
	return Accepted
}

// Next reports the earliest pending arrival.
func (p *FullPath) Next() (Time, bool) {
	if len(p.flight) == 0 {
		return 0, false
	}
	return p.flight[0].frame.Arrival, true
}

// Pop removes and returns the earliest pending frame if it has arrived by
// now — the single-frame form the dataplane engine's event loop uses to
// avoid slice churn.
func (p *FullPath) Pop(now Time) (Frame, bool) {
	if len(p.flight) == 0 || p.flight[0].frame.Arrival > now {
		return Frame{}, false
	}
	p.stats.Delivered++
	return p.flight.pop().frame, true
}

// Recv appends every frame arrived by now to buf, in arrival order.
func (p *FullPath) Recv(now Time, buf []Frame) []Frame {
	for {
		f, ok := p.Pop(now)
		if !ok {
			return buf
		}
		buf = append(buf, f)
	}
}

// Pending counts frames accepted but not yet received.
func (p *FullPath) Pending() int { return len(p.flight) }

// Stats returns a snapshot of the link counters. The sojourn samples are
// copied: the link appends to, and Reset truncates, its own array.
func (p *FullPath) Stats() Stats {
	s := p.stats
	s.queueDelaysMs = append([]float64(nil), s.queueDelaysMs...)
	return s
}
