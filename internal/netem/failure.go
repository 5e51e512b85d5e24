package netem

import (
	"math"

	"repro/internal/topo"
)

// Link-failure injection. PolKA's pitch includes "flexible path migration
// and robust failure recovery": because the core is stateless, recovering
// from a dead link is the same single PBR retarget as any other
// migration. These hooks let experiments kill and revive links and watch
// the control plane route around them.

// FailLink marks both directions of the a-b link as down. Flows whose
// path crosses a down link receive no allocation from the next tick;
// probes over it report an unreachable RTT.
func (e *Emulator) FailLink(a, b string) error {
	return e.setLinkDown(a, b, true)
}

// RestoreLink brings both directions of the a-b link back up.
func (e *Emulator) RestoreLink(a, b string) error {
	return e.setLinkDown(a, b, false)
}

func (e *Emulator) setLinkDown(a, b string, down bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ab, err := e.hopLocked(a, b)
	if err != nil {
		return err
	}
	ba, err := e.hopLocked(b, a)
	if err != nil {
		return err
	}
	e.down[ab], e.down[ba] = down, down
	return nil
}

// LinkDown reports whether the directed link is currently failed.
func (e *Emulator) LinkDown(linkID string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.linkByIDLocked(linkID)
	return ok && e.down[l]
}

// PathUp reports whether every link of the path is currently up.
func (e *Emulator) PathUp(p topo.Path) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	links, err := e.resolveLocked(p)
	if err != nil {
		return false, err
	}
	return !e.anyDownLocked(links), nil
}

// UnreachableRTTms is the sentinel RTT reported for probes over a failed
// path (pings time out rather than return).
const UnreachableRTTms = math.MaxFloat64

// anyDownLocked reports whether any of the directed links is failed.
// Caller holds e.mu.
func (e *Emulator) anyDownLocked(links []int32) bool {
	for _, l := range links {
		if e.down[l] {
			return true
		}
	}
	return false
}
