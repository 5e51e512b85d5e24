package polka

import (
	"testing"

	"repro/internal/topo"
)

// FuzzUnmarshalHeader feeds arbitrary bytes to the wire parser, seeded
// with the headers the Global P4 Lab's three tunnels carry. Whatever it
// accepts must fit in the input, and must survive a re-marshal and
// re-parse unchanged.
func FuzzUnmarshalHeader(f *testing.F) {
	lab, err := topo.BuildGlobalP4Lab(topo.DefaultGlobalP4LabConfig())
	if err != nil {
		f.Fatal(err)
	}
	routers := append(lab.NodesOfKind(topo.Edge), lab.NodesOfKind(topo.Core)...)
	d, err := NewDomain(routers, lab.MaxPort())
	if err != nil {
		f.Fatal(err)
	}
	for i, tun := range []topo.Path{topo.TunnelPath1(), topo.TunnelPath2(), topo.TunnelPath3()} {
		ports, err := lab.PortsAlong(tun)
		if err != nil {
			f.Fatal(err)
		}
		var hops []PathHop
		for j := 0; j+1 < len(tun.Nodes); j++ {
			if n, _ := lab.Node(tun.Nodes[j]); n.Kind == topo.Host {
				continue
			}
			hops = append(hops, PathHop{Node: tun.Nodes[j], Port: ports[j]})
		}
		rid, err := d.EncodePath(hops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(Header{RouteID: rid, ToS: uint8(4 * i), Proto: 6}.Marshal())
	}
	f.Add(Header{ToS: 4, Proto: 6}.Marshal())            // zero routeID
	f.Add([]byte{headerVersion, 0, 6, 0xff, 0xff, 0x01}) // length past the end
	f.Fuzz(func(t *testing.T, b []byte) {
		h, n, err := UnmarshalHeader(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		wire := h.Marshal()
		got, m, err := UnmarshalHeader(wire)
		if err != nil {
			t.Fatalf("re-parsing %x: %v", wire, err)
		}
		if m != len(wire) {
			t.Fatalf("re-parse consumed %d of %d bytes", m, len(wire))
		}
		if !got.RouteID.Equal(h.RouteID) || got.ToS != h.ToS || got.Proto != h.Proto {
			t.Fatalf("re-marshal changed the header: %+v, want %+v", got, h)
		}
	})
}
