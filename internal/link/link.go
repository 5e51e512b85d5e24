// Package link is the link-forwarding engine: one small Forwarder
// interface, its full-tier implementation, and a minimal window-based
// transport (Sender/Receiver inside RunTransfer) that reacts to loss the
// way the scenario family above it needs.
//
// The tiers follow the shape proven by bassosimone/netem:
//
//   - The fast tier is a direct handoff: frames sent at virtual time t
//     arrive at virtual time t, nothing is ever dropped or delayed. The
//     packet engine's LinkFast mode inlines it and builds no Forwarder;
//     the package tests keep it as FastPath (fast_test.go), the lossless
//     reference the transport runs over.
//
//   - FullPath is a per-link state machine modeling transmission latency
//     (frames serialize at RateMbps), queueing delay behind a bounded
//     egress FIFO with tail-drop, propagation delay, Bernoulli or
//     Gilbert-Elliott loss, and bounded out-of-order delivery.
//
// The full tier matters because of how TCP-like senders fail. Adding loss
// to a delay-only link yields a receiver-limited sender for which every
// loss is catastrophic (timeouts dominate and goodput is unpredictable).
// With serialization, a bounded queue and propagation delay, the sender in
// RunTransfer becomes congestion-limited: it backs off multiplicatively,
// recovers with fast retransmit, and its goodput degrades monotonically
// and smoothly as loss or RTT grows — the property the throttlesweep
// scenario asserts.
//
// Everything runs in deterministic virtual time (Time, int64 nanoseconds):
// no wall clocks, one seeded rand.Rand per FullPath that draws (a lossless,
// in-order link builds none), heap ties broken by insertion order. Two runs with the same seeds produce identical frame
// schedules, byte for byte — which is what lets the fleet dispatcher's
// zero-tolerance artifact compares stay meaningful for loss scenarios.
//
// internal/dataplane consumes FullPath for its LinkFull engine mode (one
// link per directed topology edge, seeded from dataplane.Config.Seed);
// the throttlesweep/bufferbloat/rstinject scenarios consume FullPath and
// RunTransfer directly.
package link

import "sort"

// Time is a virtual-time instant in nanoseconds. All link and transport
// simulation runs in virtual time; nothing in this package reads a wall
// clock.
type Time int64

// Ms converts milliseconds to a virtual-time duration/instant.
func Ms(ms float64) Time { return Time(ms * 1e6) }

// Ms converts a virtual instant/duration to milliseconds.
func (t Time) Ms() float64 { return float64(t) / 1e6 }

// Seconds converts a virtual instant/duration to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Kind classifies a frame for the transport layer. Links forward all kinds
// identically; only Sender/Receiver interpret them.
type Kind uint8

const (
	// Raw is an opaque frame (the dataplane engine's packets ride as Raw).
	Raw Kind = iota
	// Data is a transport payload segment.
	Data
	// Ack is a cumulative transport acknowledgment.
	Ack
	// Rst is a connection-kill frame (RST injection faults).
	Rst
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Raw:
		return "raw"
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Rst:
		return "rst"
	default:
		return "kind?"
	}
}

// Frame is one unit on the wire. Links treat it as opaque cargo plus a
// Size; the transport fills Seq/Ack, the dataplane engine uses Seq as an
// index into its in-flight arena (so no per-hop boxing allocation).
type Frame struct {
	// Seq is the sender's sequence number (transport: segment index;
	// dataplane: arena slot).
	Seq uint64
	// Ack is the cumulative acknowledgment carried by Ack frames.
	Ack uint64
	// Size is the frame's wire size in bytes; it drives transmission
	// latency on a FullPath.
	Size int
	// Kind classifies the frame for the transport.
	Kind Kind
	// Arrival is stamped by the link when the frame is handed to the
	// receiving side.
	Arrival Time
}

// Verdict is a link's answer to Send.
type Verdict uint8

const (
	// Accepted means the frame was queued for (eventual) delivery — or,
	// for a lost-on-the-wire frame, consumed link bandwidth first.
	Accepted Verdict = iota
	// DropQueue means the bounded egress queue was full (tail-drop); the
	// frame consumed no bandwidth.
	DropQueue
	// DropLoss means the frame was transmitted but lost on the wire: it
	// consumed serialization time yet never arrives.
	DropLoss
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case DropQueue:
		return "drop-queue"
	case DropLoss:
		return "drop-loss"
	default:
		return "verdict?"
	}
}

// Forwarder is one direction of a link: frames go in at a virtual send
// time and come out — possibly delayed, dropped, or reordered — at their
// arrival time. Implementations are single-goroutine state machines; the
// caller owns the virtual clock and must never move it backwards.
type Forwarder interface {
	// Send offers a frame to the link at virtual time now.
	Send(now Time, f Frame) Verdict
	// Next reports the earliest pending arrival (ok=false when idle).
	Next() (Time, bool)
	// Recv appends every frame whose arrival time is ≤ now to buf, in
	// arrival order, and returns the extended slice.
	Recv(now Time, buf []Frame) []Frame
	// Pending counts frames accepted but not yet received.
	Pending() int
	// Stats returns a snapshot of the link counters.
	Stats() Stats
}

// Stats aggregates one forwarder's counters.
type Stats struct {
	// Sent counts frames accepted onto the link (including frames later
	// lost on the wire).
	Sent uint64
	// Delivered counts frames handed to the receiving side.
	Delivered uint64
	// QueueDrops counts tail-drops at the bounded egress queue.
	QueueDrops uint64
	// LossDrops counts frames lost on the wire.
	LossDrops uint64
	// Reordered counts frames whose computed arrival undercut an earlier
	// frame's (out-of-order deliveries).
	Reordered uint64
	// MaxQueueDepth is the deepest the egress queue ever got (frames
	// waiting or serializing).
	MaxQueueDepth int

	// queueDelaysMs holds one queueing-delay sample (ms spent waiting
	// behind earlier frames before serialization began) per accepted
	// frame. FullPath only.
	queueDelaysMs []float64
}

// QueueDelayP99Ms returns the 99th-percentile queueing delay in
// milliseconds (0 when no samples were recorded).
func (s Stats) QueueDelayP99Ms() float64 { return s.queueDelayQuantile(0.99) }

// QueueDelayMaxMs returns the largest queueing-delay sample in
// milliseconds.
func (s Stats) QueueDelayMaxMs() float64 {
	max := 0.0
	for _, d := range s.queueDelaysMs {
		if d > max {
			max = d
		}
	}
	return max
}

// queueDelayQuantile returns the q-quantile (nearest-rank) of the
// queueing-delay samples.
func (s Stats) queueDelayQuantile(q float64) float64 {
	if len(s.queueDelaysMs) == 0 {
		return 0
	}
	sorted := make([]float64, len(s.queueDelaysMs))
	copy(sorted, s.queueDelaysMs)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// SplitSeed derives a child seed from a parent seed and a salt with a
// splitmix64 finalizer, so every link (and every sweep cell) gets an
// independent, reproducible random stream from one top-level Seed.
func SplitSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
