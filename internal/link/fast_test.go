package link

// FastPath is the fast tier: a direct queue-to-queue handoff. Frames
// arrive at exactly their send time, in send order; nothing is delayed,
// dropped, or reordered, and no randomness is consumed. The tests use it
// as the lossless reference link.
type FastPath struct {
	queue []Frame
	head  int
	stats Stats
}

// NewFastPath returns an empty fast-tier link.
func NewFastPath() *FastPath { return &FastPath{} }

// Send accepts the frame unconditionally; it arrives at time now.
func (p *FastPath) Send(now Time, f Frame) Verdict {
	f.Arrival = now
	p.queue = append(p.queue, f)
	p.stats.Sent++
	if d := len(p.queue) - p.head; d > p.stats.MaxQueueDepth {
		p.stats.MaxQueueDepth = d
	}
	return Accepted
}

// Next reports the arrival time of the oldest pending frame.
func (p *FastPath) Next() (Time, bool) {
	if p.head >= len(p.queue) {
		return 0, false
	}
	return p.queue[p.head].Arrival, true
}

// Recv appends every frame with arrival ≤ now to buf, in send order.
func (p *FastPath) Recv(now Time, buf []Frame) []Frame {
	for p.head < len(p.queue) && p.queue[p.head].Arrival <= now {
		buf = append(buf, p.queue[p.head])
		p.stats.Delivered++
		p.head++
	}
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
	return buf
}

// Pending counts frames sent but not yet received.
func (p *FastPath) Pending() int { return len(p.queue) - p.head }

// Stats returns a snapshot of the counters.
func (p *FastPath) Stats() Stats { return p.stats }
