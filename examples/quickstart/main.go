// Quickstart: the smallest useful tour of the library.
//
// It (1) reproduces the paper's Fig. 1 PolKA worked example with raw GF(2)
// arithmetic, then (2) builds a routing domain over a three-switch
// topology, encodes a path into a single routeID and forwards with it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/gf2"
	"repro/internal/polka"
)

func main() {
	// --- 1. Fig. 1 by hand: routeID ≡ o_i (mod s_i) via the CRT. -------
	s1 := gf2.FromUint64(0b11)   // t+1
	s2 := gf2.FromUint64(0b111)  // t^2+t+1
	s3 := gf2.FromUint64(0b1011) // t^3+t+1
	ports := []gf2.Poly{gf2.One, gf2.T, gf2.FromUint64(0b110)}

	routeID, err := gf2.CRT(ports, []gf2.Poly{s1, s2, s3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routeID = %s (%v)\n", routeID.BitString(), routeID)
	fmt.Printf("forward at s2: %s mod %v = %v (port 2, as in the paper)\n\n",
		routeID.BitString(), s2, routeID.Mod(s2))

	// --- 2. The same thing through the polka API. ----------------------
	domain, err := polka.NewDomain([]string{"leaf1", "spine", "leaf2"}, 8)
	if err != nil {
		log.Fatal(err)
	}
	path := []polka.PathHop{{Node: "leaf1", Port: 3}, {Node: "spine", Port: 7}, {Node: "leaf2", Port: 1}}
	rid, err := domain.EncodePath(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("domain routeID = %s (%d bits)\n", rid.BitString(), rid.Degree()+1)
	for _, hop := range path {
		sw, err := domain.Switch(hop.Node)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s (s = %v) forwards to port %d\n", hop.Node, sw.NodeID(), sw.OutputPort(rid))
	}
	if err := domain.VerifyPath(rid, path); err != nil {
		log.Fatal(err)
	}
}
