// Package dataplane is a packet-level PolKA forwarding engine: where
// internal/netem emulates flows as fluid rates, this package pushes
// individual packets hop by hop through a topo.Topology, forwarding at each
// core node with the table-driven CRC reduction (port = routeID mod nodeID)
// that the paper argues is cheap enough for switch hardware.
//
// The engine instantiates one polka.Switch per forwarding node (each with
// its pre-built gf2.Reducer), keeps a per-switch ingress queue, and
// processes packets in hop-synchronous rounds on the calling goroutine.
// Three forwarding modes cover the paper's scenario families:
//
//   - Unicast: the residue at each node is the single output port.
//   - Multicast: the residue is an M-PolKA one-hot port set; the packet is
//     replicated to every set port.
//   - PoT: unicast forwarding plus proof-of-transit — every hop folds its
//     transit tag into the packet accumulator and the egress verifies the
//     full proof before delivery.
//
// A packet is delivered when it egresses toward a neighbor that is not a
// forwarding node (a host or an edge outside the domain); it is dropped on
// TTL expiry, on a residue that names no attached link, or on a failed
// proof-of-transit verification.
package dataplane

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/link"
	"repro/internal/polka"
)

// Mode selects how a node interprets the routeID residue for a packet.
type Mode uint8

const (
	// Unicast reads the residue as a single output port number.
	Unicast Mode = iota
	// Multicast reads the residue as an M-PolKA one-hot port bitmask and
	// replicates the packet to every set port.
	Multicast
	// PoT forwards like Unicast but additionally folds each hop's transit
	// tag into the packet accumulator and verifies the proof at egress.
	PoT
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Unicast:
		return "unicast"
	case Multicast:
		return "multicast"
	case PoT:
		return "pot"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// LinkMode selects how packets move between adjacent switches.
type LinkMode uint8

const (
	// LinkFast is the default tier: a packet emitted toward a neighbor is
	// handed to that switch's queue directly. No serialization, queueing,
	// delay or loss — maximum forwarding throughput, hop-synchronous
	// rounds.
	LinkFast LinkMode = iota
	// LinkFull routes every inter-switch handoff through a link.FullPath:
	// frames serialize at the link's capacity, wait in a bounded tail-drop
	// egress queue, cross a propagation delay, and may be lost or
	// reordered. Execution becomes an event-driven loop in virtual time.
	LinkFull
)

// String returns the link-mode name.
func (m LinkMode) String() string {
	switch m {
	case LinkFast:
		return "fast"
	case LinkFull:
		return "full"
	default:
		return fmt.Sprintf("LinkMode(%d)", int(m))
	}
}

// DropReason classifies why the engine discarded a packet.
type DropReason uint8

const (
	// DropNone means the packet was not dropped.
	DropNone DropReason = iota
	// DropTTL means the TTL reached zero before delivery.
	DropTTL
	// DropBadPort means the residue named a port with no attached link —
	// the packet was misrouted (e.g. a routeID not encoded for this node).
	DropBadPort
	// DropPoT means a proof-of-transit operation failed: the node was not
	// on the protected path, or egress verification rejected the proof.
	DropPoT
	// DropQueue means a full-mode link's bounded egress queue tail-dropped
	// the packet (LinkFull only).
	DropQueue
	// DropLoss means the wire-loss model discarded the packet in transit
	// (LinkFull only).
	DropLoss
)

// String returns the drop reason name.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropTTL:
		return "ttl-expired"
	case DropBadPort:
		return "bad-port"
	case DropPoT:
		return "pot-violation"
	case DropQueue:
		return "queue-overflow"
	case DropLoss:
		return "wire-loss"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Packet is one packet in flight. RouteID, TTL and Size are set by the
// sender (typically via Route.NewPacket); the engine fills ID at injection
// and Egress as the packet traverses the network.
type Packet struct {
	// RouteID is the big-endian routeID field of the PolKA header, exactly
	// as polka.RouteIDBytes renders it. The engine never mutates it, so
	// packets of one route may share the slice.
	RouteID []byte
	// TTL is the remaining hop budget; it is decremented at every
	// forwarding decision and the packet is dropped when it expires.
	// Inject replaces a non-positive TTL with the engine default.
	TTL int
	// Size is the payload size in bytes, accumulated into the delivered
	// byte counters.
	Size int
	// Mode selects the residue interpretation (unicast, multicast, PoT).
	Mode Mode
	// Ingress is the port the packet entered its injection node on. The
	// engine carries it for accounting/tracing only.
	Ingress uint64
	// Proof, Nonce and Acc carry the proof-of-transit state for PoT
	// packets: the shared per-path proof context, the per-packet nonce,
	// and the running accumulator each hop folds its tag into.
	Proof *polka.TransitProof
	// Nonce is the PoT nonce stamped at the ingress.
	Nonce gf2.Poly
	// Acc is the PoT accumulator (zero at injection).
	Acc gf2.Poly
	// ID is the engine-assigned injection sequence number.
	ID uint64
	// ArrivalNs is the virtual time (nanoseconds) the packet last arrived
	// somewhere — at delivery, the delivery instant. LinkFull only; the
	// fast tier has no clock and leaves it zero.
	ArrivalNs int64
	// Egress is the non-forwarding node the packet was delivered to (set
	// on delivery).
	Egress string
}

// TraceEvent describes one forwarding outcome, delivered to the Config.Trace
// hook. Exactly one of Forwarded/Delivered/Drop≠DropNone applies.
type TraceEvent struct {
	// PacketID is the engine-assigned packet ID.
	PacketID uint64
	// Node is where the decision happened.
	Node string
	// Port is the output port chosen (0 when the packet was dropped before
	// a port was selected, e.g. TTL expiry).
	Port uint64
	// Next is the neighbor the packet was sent to ("" on drop).
	Next string
	// TTL is the packet's remaining TTL after the decision.
	TTL int
	// Delivered is true when Next is outside the forwarding domain and the
	// packet left the engine there.
	Delivered bool
	// Drop is the drop reason, or DropNone.
	Drop DropReason
}

// Config tunes an Engine. The zero value is usable: a core-node domain is
// derived from the topology, execution is serial, and TTL defaults apply.
type Config struct {
	// Domain supplies the polka.Domain naming the forwarding nodes and
	// their identifiers. When nil, a domain over the topology's Core nodes
	// is built with NewDomain(cores, topo.MaxPort()).
	Domain *polka.Domain
	// Workers selects nothing: the engine is serial in both link modes and
	// New rejects Workers > 1. The field stays declared only because
	// benchmark/dataplane.go assigns it 1 and benchmark/ is frozen for
	// every PR but a [benchmark] one; the next [benchmark] PR drops that
	// assignment and this field together.
	Workers int
	// DefaultTTL replaces a non-positive packet TTL at injection
	// (default 64).
	DefaultTTL int
	// MaxInFlight bounds the packets queued across all switches
	// (default 1<<20). Multicast replication can amplify geometrically if
	// a crafted routeID loops packets between nodes; TTL alone would only
	// stop that after ~2^TTL copies, so Run fails cleanly when a round
	// pushes the in-flight population past this cap.
	MaxInFlight int
	// LinkMode selects the link tier: LinkFast (default, direct handoff)
	// or LinkFull (per-link state machines in virtual time).
	LinkMode LinkMode
	// Link is the full-tier link template applied to every directed link.
	// Its RateMbps and DelayMs fields act as overrides: > 0 fixes the
	// value for all links, 0 takes each link's topology attributes
	// (LinkAttrs.CapacityMbps / DelayMs), and < 0 means infinite rate /
	// zero delay. QueuePkts, Loss, Reorder* apply to every link as given;
	// Link.Seed is ignored (per-link seeds derive from Config.Seed).
	// LinkFull only.
	Link link.FullConfig
	// Seed roots the engine's deterministic randomness: every full-tier
	// link gets a private rand stream split from it, so equal seeds (and
	// equal inject schedules) reproduce runs exactly. LinkFull only.
	Seed int64
	// Trace, when non-nil, receives every forwarding outcome, on the
	// goroutine that called Run.
	Trace func(TraceEvent)
}

// Stats aggregates engine counters. All counters are cumulative since the
// last Reset.
type Stats struct {
	// Injected counts packets accepted by Inject/InjectBatch.
	Injected uint64
	// Hops counts forwarding decisions executed (one per packet per node).
	Hops uint64
	// Delivered counts packets that egressed to a non-forwarding node.
	Delivered uint64
	// DeliveredBytes sums the Size of delivered packets.
	DeliveredBytes uint64
	// TTLDrops, BadPortDrops and PoTDrops count discarded packets by
	// reason.
	TTLDrops, BadPortDrops, PoTDrops uint64
	// QueueDrops and LossDrops count packets discarded by full-tier links
	// (tail-drop and wire loss); always zero in fast mode.
	QueueDrops, LossDrops uint64
	// PoTVerified counts PoT packets whose proof verified at egress.
	PoTVerified uint64
	// Rounds counts hop-synchronous forwarding rounds (fast mode) or
	// event batches (full mode) executed by Run.
	Rounds uint64
}

// Dropped returns the total packets discarded for any reason.
func (s Stats) Dropped() uint64 {
	return s.TTLDrops + s.BadPortDrops + s.PoTDrops + s.QueueDrops + s.LossDrops
}

// add accumulates a round buffer's deltas.
func (s *Stats) add(d Stats) {
	s.Hops += d.Hops
	s.Delivered += d.Delivered
	s.DeliveredBytes += d.DeliveredBytes
	s.TTLDrops += d.TTLDrops
	s.BadPortDrops += d.BadPortDrops
	s.PoTDrops += d.PoTDrops
	s.QueueDrops += d.QueueDrops
	s.LossDrops += d.LossDrops
	s.PoTVerified += d.PoTVerified
}

// NodeStats are the per-switch counters.
type NodeStats struct {
	// Rx counts packets dequeued for forwarding at this node.
	Rx uint64
	// Tx counts packets sent onward to another forwarding node or
	// delivered off-domain.
	Tx uint64
	// Delivered counts packets that egressed the domain at this node.
	Delivered uint64
	// TTLDrops, BadPortDrops and PoTDrops count local discards.
	TTLDrops, BadPortDrops, PoTDrops uint64
	// QueueDrops and LossDrops count discards on this node's outgoing
	// full-tier links; always zero in fast mode.
	QueueDrops, LossDrops uint64
	// Egress is the per-port egress histogram, indexed by port number
	// (index 0 unused; ports are 1-based).
	Egress []uint64
}
