package polka

import (
	"encoding/binary"
	"fmt"

	"repro/internal/gf2"
)

// Header is the PolKA packet header: a fixed route identifier plus the
// traffic metadata the framework's policy-based routing matches on. Unlike
// a segment-routing label stack, the header is immutable in transit — core
// nodes only read it.
type Header struct {
	// RouteID is the CRT-encoded route polynomial.
	RouteID gf2.Poly
	// ToS is the IP type-of-service value the edge classifier matched; the
	// testbed experiments use it to distinguish the three TCP flows.
	ToS uint8
	// Proto is the IP protocol number of the encapsulated flow (6 = TCP).
	Proto uint8
}

// headerVersion tags the wire encoding so incompatible changes are
// detectable.
const headerVersion = 1

// Marshal serializes the header to its wire form:
//
//	byte 0      version
//	byte 1      ToS
//	byte 2      Proto
//	bytes 3-4   big-endian length L of the routeID field in bytes
//	bytes 5..   routeID coefficient string, big-endian
func (h Header) Marshal() []byte {
	rid := routeIDBytes(h.RouteID)
	out := make([]byte, 5+len(rid))
	out[0] = headerVersion
	out[1] = h.ToS
	out[2] = h.Proto
	binary.BigEndian.PutUint16(out[3:5], uint16(len(rid)))
	copy(out[5:], rid)
	return out
}

// UnmarshalHeader parses a wire-format header, returning the header and the
// number of bytes consumed.
func UnmarshalHeader(b []byte) (Header, int, error) {
	if len(b) < 5 {
		return Header{}, 0, fmt.Errorf("polka: header too short (%d bytes)", len(b))
	}
	if b[0] != headerVersion {
		return Header{}, 0, fmt.Errorf("polka: unsupported header version %d", b[0])
	}
	l := int(binary.BigEndian.Uint16(b[3:5]))
	if len(b) < 5+l {
		return Header{}, 0, fmt.Errorf("polka: header truncated: routeID needs %d bytes, have %d", l, len(b)-5)
	}
	return Header{
		RouteID: RouteIDFromBytes(b[5 : 5+l]),
		ToS:     b[1],
		Proto:   b[2],
	}, 5 + l, nil
}

// WireSize returns the marshalled size of the header in bytes.
func (h Header) WireSize() int {
	return 5 + len(routeIDBytes(h.RouteID))
}

// RouteIDBits returns the length in bits of the route identifier field,
// i.e. deg(routeID)+1 (0 for an empty route). PolKA's label length is the
// sum of the nodeID degrees along the path and does not grow with the
// number of bits needed to name every hop explicitly.
func (h Header) RouteIDBits() int {
	return h.RouteID.Degree() + 1
}
