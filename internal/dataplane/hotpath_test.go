package dataplane

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/polka"
	"repro/internal/topo"
)

// capErrText is the unified admission-refusal message every cap site
// (Inject, InjectBatch, Run, runFull) must produce — pinned here so the
// sites cannot drift apart again.
func capErrText(n, cap int) string {
	return fmt.Sprintf("dataplane: %d packets in flight exceeds MaxInFlight %d (drain with Run or raise Config.MaxInFlight)", n, cap)
}

// TestInjectBatchAtomic pins batch admission atomicity: a batch that does
// not fit under the cap is rejected without queuing a prefix, consuming
// IDs, or touching counters, so retrying it after a drain never
// double-injects.
func TestInjectBatchAtomic(t *testing.T) {
	e := labEngine(t, Config{MaxInFlight: 10})
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(8, 1)); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if err := e.InjectBatch(r.Inject, r.NewPackets(5, 1)); err == nil {
		t.Fatal("overflowing batch accepted")
	} else if want := "batch of 5: " + capErrText(13, 10); err.Error() != want {
		t.Fatalf("batch rejection text:\n got %q\nwant %q", err.Error(), want)
	}
	if after := e.Stats(); after != before {
		t.Fatalf("rejected batch moved counters: %+v -> %+v", before, after)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 8 {
		t.Fatalf("delivered %d, want the 8 admitted packets only", stats.Delivered)
	}
	// The retry fits now and must not have lost or duplicated anything.
	if err := e.InjectBatch(r.Inject, r.NewPackets(5, 1)); err != nil {
		t.Fatalf("retry after drain rejected: %v", err)
	}
	if stats, err = e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 13 || stats.Injected != 13 {
		t.Fatalf("delivered %d injected %d, want 13/13", stats.Delivered, stats.Injected)
	}
	// IDs are a contiguous injection sequence: the rejected batch consumed
	// none.
	ids := make(map[uint64]bool)
	for _, pkt := range e.Delivered() {
		ids[pkt.ID] = true
	}
	for want := uint64(1); want <= 13; want++ {
		if !ids[want] {
			t.Fatalf("ID %d missing from delivered set (rejected batch consumed IDs?)", want)
		}
	}
}

// TestFullModeCancelInjectRerun pins the full-tier accounting across a
// canceled run: packets a canceled runFull left on wires still count
// against the in-flight cap (they live in the link arena with pending
// zeroed), and a later Run drains them to delivery — or a Reset discards
// them, after which the engine replays like a fresh one.
func TestFullModeCancelInjectRerun(t *testing.T) {
	cfg := Config{
		MaxInFlight: 3,
		LinkMode:    LinkFull,
		Link:        link.FullConfig{RateMbps: -1, DelayMs: -1},
	}
	e := labEngine(t, cfg)
	r, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectBatch(r.Inject, r.NewPackets(3, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// The three packets now sit in the link arena, not in node queues —
	// they still occupy the whole cap.
	if _, err := e.Inject(r.Inject, r.NewPacket(1)); err == nil {
		t.Fatal("injection accepted while canceled run holds the cap on wires")
	} else if want := capErrText(4, 3); err.Error() != want {
		t.Fatalf("arena-occupancy rejection text:\n got %q\nwant %q", err.Error(), want)
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 3 || stats.Dropped() != 0 {
		t.Fatalf("resumed run delivered %d dropped %d, want 3/0", stats.Delivered, stats.Dropped())
	}
	// The wires are clear; the budget is back.
	if _, err := e.Inject(r.Inject, r.NewPacket(1)); err != nil {
		t.Fatalf("injection after full drain rejected: %v", err)
	}

	// Abort → Reset: cancel again, this time one step into the run, so the
	// frames sit on a second-hop wire with their link in the due heap, and
	// discard them. Nothing may survive, and the same injections must then
	// reproduce a fresh engine's run byte for byte.
	e.Reset()
	play := func(ctx context.Context, e *Engine) error {
		if err := e.InjectBatch(r.Inject, r.NewPackets(3, 1)); err != nil {
			t.Fatal(err)
		}
		_, err := e.Run(ctx)
		return err
	}
	if err := play(newCancelAfter(2), e); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if e.full.inFlight != 3 || len(e.full.due) != 1 {
		t.Fatalf("canceled run holds %d packets on %d due links, want 3 on 1", e.full.inFlight, len(e.full.due))
	}
	assertDueHeapDescribesLinks(t, e)
	e.Reset()
	assertFullIdle(t, e)
	fresh := labEngine(t, cfg)
	if err := play(context.Background(), fresh); err != nil {
		t.Fatal(err)
	}
	if err := play(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if d := diffSnapshots(snapshotFull(t, e), snapshotFull(t, fresh)); d != "" {
		t.Fatalf("replay after cancel and Reset diverges from a fresh engine on %s", d)
	}
}

// TestCapBoundaryUnified is the cap-boundary table: the population may
// reach MaxInFlight exactly at every admission site, n > MaxInFlight is
// refused everywhere, and all sites report the identical message.
func TestCapBoundaryUnified(t *testing.T) {
	const cap = 5
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"fast", Config{MaxInFlight: cap}},
		{"full", Config{MaxInFlight: cap, LinkMode: LinkFull,
			Link: link.FullConfig{RateMbps: -1, DelayMs: -1}}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := labEngine(t, mode.cfg)
			r, err := e.UnicastRoute(topo.TunnelPath1())
			if err != nil {
				t.Fatal(err)
			}
			// Exactly at the cap: admitted, and Run completes.
			if err := e.InjectBatch(r.Inject, r.NewPackets(cap, 1)); err != nil {
				t.Fatalf("batch of exactly MaxInFlight rejected: %v", err)
			}
			// One past the cap, from both admission calls.
			if _, err := e.Inject(r.Inject, r.NewPacket(1)); err == nil || err.Error() != capErrText(cap+1, cap) {
				t.Fatalf("Inject at cap+1: got %v, want %q", err, capErrText(cap+1, cap))
			}
			if err := e.InjectBatch(r.Inject, r.NewPackets(2, 1)); err == nil ||
				err.Error() != "batch of 2: "+capErrText(cap+2, cap) {
				t.Fatalf("InjectBatch at cap+2: got %v", err)
			}
			if stats, err := e.Run(context.Background()); err != nil || stats.Delivered != cap {
				t.Fatalf("run at exactly the cap: delivered %d, err %v", stats.Delivered, err)
			}
		})
	}
	t.Run("run-amplification", func(t *testing.T) {
		// The cyclic multicast from TestMaxInFlightStopsAmplification doubles
		// the population per cycle: 1 → 2 → 2 → 4 → 4 → 8. With MaxInFlight 4
		// the fast tier, which checks between rounds, must refuse at exactly 8
		// — populations of exactly 4 passed through the check. The full tier
		// checks before every arrival, in the middle of an event step, where an
		// arrival adds at most one packet: it refuses at 5 — with a frame
		// left on the link being drained — and with MaxInFlight 2 at 3, on
		// the arrival that emptied that link.
		for _, c := range []struct {
			name string
			cfg  Config
			at   int
		}{
			{"fast", Config{MaxInFlight: 4}, 8},
			{"full", Config{MaxInFlight: 4, LinkMode: LinkFull,
				Link: link.FullConfig{RateMbps: -1, DelayMs: -1}}, 5},
			{"full-link-drained", Config{MaxInFlight: 2, LinkMode: LinkFull,
				Link: link.FullConfig{RateMbps: -1, DelayMs: -1}}, 3},
		} {
			t.Run(c.name, func(t *testing.T) {
				want := capErrText(c.at, c.cfg.MaxInFlight)
				e := triangleEngine(t, c.cfg)
				injectAmplifier(t, e)
				if _, err := e.Run(context.Background()); err == nil || err.Error() != want {
					t.Fatalf("amplifying Run: got %v, want %q", err, want)
				}
				if c.cfg.LinkMode != LinkFull {
					return
				}
				// The link scan refuses at the same point with the same counters.
				scan := triangleEngine(t, c.cfg)
				injectAmplifier(t, scan)
				if _, err := runFullScan(context.Background(), scan); err == nil || err.Error() != want {
					t.Fatalf("amplifying link scan: got %v, want %q", err, want)
				}
				aborted := snapshotFull(t, e)
				if d := diffSnapshots(aborted, snapshotFull(t, scan)); d != "" {
					t.Fatalf("aborted heap core and link scan diverge on %s", d)
				}
				// The refusal came mid-step, with packets on wires and links in
				// the due heap. Reset clears all of it, and the same injection
				// then replays the abort byte for byte.
				if e.full.inFlight == 0 || len(e.full.due) == 0 {
					t.Fatal("the abort left nothing on the wires; it was not mid-step")
				}
				assertDueHeapDescribesLinks(t, e)
				e.Reset()
				assertFullIdle(t, e)
				injectAmplifier(t, e)
				if _, err := e.Run(context.Background()); err == nil || err.Error() != want {
					t.Fatalf("replayed amplifying Run: got %v, want %q", err, want)
				}
				if d := diffSnapshots(snapshotFull(t, e), aborted); d != "" {
					t.Fatalf("replay after abort and Reset diverges on %s", d)
				}
			})
		}
	})
}

// injectAmplifier injects one packet of a cyclic multicast on the triangle
// — s replicates to i and d, both send back to s — which MulticastRoute
// would reject and only MaxInFlight and TTL stop.
func injectAmplifier(t *testing.T, e *Engine) {
	t.Helper()
	var hops []polka.MultipathHop
	for _, n := range []struct {
		name    string
		towards []string
	}{{"s", []string{"i", "d"}}, {"i", []string{"s"}}, {"d", []string{"s"}}} {
		sw, err := e.Domain().Switch(n.name)
		if err != nil {
			t.Fatal(err)
		}
		node, err := e.Topology().Node(n.name)
		if err != nil {
			t.Fatal(err)
		}
		var mask uint64
		for _, to := range n.towards {
			p, err := node.Port(to)
			if err != nil {
				t.Fatal(err)
			}
			mask |= 1 << p
		}
		hops = append(hops, polka.MultipathHop{NodeID: sw.NodeID(), Ports: mask})
	}
	rid, err := polka.ComputeMultipathRouteID(hops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inject("s", Packet{RouteID: polka.RouteIDBytes(rid), Mode: Multicast, Size: 1}); err != nil {
		t.Fatal(err)
	}
}

// deliveredKey projects a delivered packet onto its comparable identity:
// everything the engine stamps, excluding the shared Proof pointer.
type deliveredKey struct {
	ID        uint64
	TTL       int
	Size      int
	Mode      Mode
	Egress    string
	Acc       string
	RID       string
	ArrivalNs int64
}

func deliveredKeys(pkts []Packet) []deliveredKey {
	out := make([]deliveredKey, len(pkts))
	for i, pkt := range pkts {
		out[i] = deliveredKey{
			ID: pkt.ID, TTL: pkt.TTL, Size: pkt.Size, Mode: pkt.Mode,
			Egress: pkt.Egress, Acc: pkt.Acc.String(), RID: string(pkt.RouteID), ArrivalNs: pkt.ArrivalNs,
		}
	}
	return out
}

// mixedModesRun drives one engine with the three forwarding modes at once
// (40 packets each of unicast, PoT and a two-leaf multicast tree) and
// returns the delivered projection, the stats and every node's counters.
func mixedModesRun(t *testing.T, cfg Config) ([]deliveredKey, Stats, map[string]NodeStats) {
	t.Helper()
	e := labEngine(t, cfg)
	lab := e.Topology()
	uni, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	pot, err := e.PoTRoute(topo.TunnelPath2(), 7)
	if err != nil {
		t.Fatal(err)
	}
	port := func(node, toward string) uint {
		n, _ := lab.Node(node)
		p, err := n.Port(toward)
		if err != nil {
			t.Fatal(err)
		}
		return uint(p)
	}
	mustSet := func(ports ...uint) uint64 {
		m, err := polka.PortSet(ports...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mc, err := e.MulticastRoute(topo.MIA, map[string]uint64{
		topo.MIA: mustSet(port(topo.MIA, topo.SAO), port(topo.MIA, topo.CHI)),
		topo.SAO: mustSet(port(topo.SAO, topo.AMS)),
		topo.CHI: mustSet(port(topo.CHI, topo.AMS)),
		topo.AMS: mustSet(port(topo.AMS, topo.HostAMS)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Route{uni, pot, mc} {
		if err := e.InjectBatch(r.Inject, r.NewPackets(40, 500)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nodeStats := make(map[string]NodeStats)
	for _, name := range e.Domain().Nodes() {
		ns, err := e.NodeStats(name)
		if err != nil {
			t.Fatal(err)
		}
		nodeStats[name] = ns
	}
	return deliveredKeys(e.Delivered()), stats, nodeStats
}

// TestParallelTraceAndMixedModes runs all three modes at once with a trace
// hook, which forces the per-packet path for every hop, and then without
// one, which takes the batched run path: Delivered() — order and packet
// contents — plus Stats and every node's counters must be identical.
func TestParallelTraceAndMixedModes(t *testing.T) {
	var events uint64
	refKeys, refStats, refNodes := mixedModesRun(t, Config{Trace: func(TraceEvent) { events++ }})
	want := uint64(40 + 40 + 80) // unicast + pot + two multicast copies each
	if refStats.Delivered != want {
		t.Fatalf("delivered %d, want %d", refStats.Delivered, want)
	}
	if refStats.PoTVerified != 40 {
		t.Fatalf("potVerified %d, want 40", refStats.PoTVerified)
	}
	// One trace event per emitted copy: unicast/PoT hops emit one each,
	// multicast hops one per replica. 40 unicast·3 + 40 pot·3 + 40
	// multicast·(2 at MIA + 1 at SAO + 1 at CHI + 2 at AMS).
	if want := uint64(40*3 + 40*3 + 40*6); events != want {
		t.Fatalf("trace events %d, want %d", events, want)
	}
	keys, stats, nodes := mixedModesRun(t, Config{})
	if stats != refStats {
		t.Fatalf("stats diverge:\nper-packet %+v\nbatched    %+v", refStats, stats)
	}
	if len(keys) != len(refKeys) {
		t.Fatalf("batched delivered %d packets, per-packet %d", len(keys), len(refKeys))
	}
	for i := range keys {
		if keys[i] != refKeys[i] {
			t.Fatalf("delivered[%d] diverges:\nper-packet %+v\nbatched    %+v", i, refKeys[i], keys[i])
		}
	}
	for name, ref := range refNodes {
		if got := nodes[name]; !reflect.DeepEqual(got, ref) {
			t.Fatalf("node %s counters diverge:\nper-packet %+v\nbatched    %+v", name, ref, got)
		}
	}
}

// TestResetReplaysIdentically pins Reset's contract for the pooled round
// state: a reset engine re-running the same injections reproduces the
// delivered sequence and stats byte for byte, with the recycled buffers
// warm.
func TestResetReplaysIdentically(t *testing.T) {
	e := labEngine(t, Config{})
	uni, err := e.UnicastRoute(topo.TunnelPath1())
	if err != nil {
		t.Fatal(err)
	}
	pot, err := e.PoTRoute(topo.TunnelPath2(), 11)
	if err != nil {
		t.Fatal(err)
	}
	play := func() ([]deliveredKey, Stats) {
		for _, r := range []*Route{uni, pot} {
			if err := e.InjectBatch(r.Inject, r.NewPackets(30, 256)); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return deliveredKeys(e.Delivered()), stats
	}
	firstKeys, firstStats := play()
	for replay := 0; replay < 3; replay++ {
		e.Reset()
		keys, stats := play()
		if stats != firstStats {
			t.Fatalf("replay %d stats diverge:\nfirst  %+v\nreplay %+v", replay, firstStats, stats)
		}
		if len(keys) != len(firstKeys) {
			t.Fatalf("replay %d delivered %d, first %d", replay, len(keys), len(firstKeys))
		}
		for i := range keys {
			if keys[i] != firstKeys[i] {
				t.Fatalf("replay %d delivered[%d] diverges:\nfirst  %+v\nreplay %+v", replay, i, firstKeys[i], keys[i])
			}
		}
	}
}
