package netem

import "math"

// allocUnit is one allocation unit presented to the max-min fair
// allocator — a flow, or one subpath of a multipath flow: a demand cap, the
// directed links it traverses (by topo.Link.Index), and the rate the
// allocator grants it.
type allocUnit struct {
	flow   *flowState
	sub    int
	demand float64
	links  []int32
	rate   float64
}

// filler is the max-min fair allocator with its scratch, all of it sized
// by the number of links and reused from run to run.
type filler struct {
	remaining []float64 // capacity left on each link
	crossing  []int32   // unfrozen units crossing each link; all 0 between runs
	share     []float64 // this round's equal share on each link
	touched   []int32   // the links some unit with positive demand crosses
	unfrozen  []int32   // indices of the units not yet frozen
}

func newFiller(links int) filler {
	return filler{
		remaining: make([]float64, links),
		crossing:  make([]int32, links),
		share:     make([]float64, links),
	}
}

// run computes the max-min fair allocation of the units over the links by
// progressive filling and stores it in their rate fields: repeatedly find
// the tightest constraint — either a link whose equal share among its
// unfrozen units is smallest, or a unit whose demand is below every link
// share — freeze the affected units at that rate, subtract their share
// from link capacities, and repeat on the rest.
//
// The classic water-filling invariant holds on the result: a unit's rate
// can only be increased by decreasing the rate of a unit with an equal or
// smaller rate. TCP flows sharing a bottleneck converge to (approximately) this
// allocation, which is why a flow-level emulator built on it reproduces
// the testbed's iperf measurements.
//
// Units freeze, and capacities are charged, in the order of units, so the
// floating-point result is a function of that order alone.
func (a *filler) run(units []allocUnit, capacity []float64) {
	unfrozen, touched := a.unfrozen[:0], a.touched[:0]
	for i := range units {
		u := &units[i]
		u.rate = 0
		if u.demand <= 0 {
			continue
		}
		unfrozen = append(unfrozen, int32(i))
		for _, l := range u.links {
			if a.crossing[l] == 0 {
				touched = append(touched, l)
				a.remaining[l] = capacity[l]
			}
			a.crossing[l]++
		}
	}

	const eps = 1e-9
	for len(unfrozen) > 0 {
		// The binding constraint is the smaller of the minimum link share
		// and the minimum unfrozen demand.
		level := math.Inf(1)
		for _, l := range touched {
			a.share[l] = math.Inf(1)
			if n := a.crossing[l]; n > 0 {
				a.share[l] = a.remaining[l] / float64(n)
			}
			if a.share[l] < level {
				level = a.share[l]
			}
		}
		for _, i := range unfrozen {
			if d := units[i].demand; d < level {
				level = d
			}
		}
		if level < 0 {
			level = 0
		}

		// Decide which units freeze at this level against a consistent
		// snapshot, the shares computed above: demand-limited units get
		// their demand; units crossing an arg-min (saturating) link get
		// the level. Units examined later in the pass do not see the
		// capacity the earlier ones were charged.
		next := unfrozen[:0]
		for _, i := range unfrozen {
			u := &units[i]
			frozen := false
			if u.demand <= level+eps {
				frozen, u.rate = true, u.demand
			} else {
				for _, l := range u.links {
					if a.share[l] <= level+eps {
						frozen, u.rate = true, level
						break
					}
				}
			}
			if !frozen {
				next = append(next, i)
				continue
			}
			for _, l := range u.links {
				a.remaining[l] -= u.rate
				if a.remaining[l] < 0 {
					a.remaining[l] = 0
				}
				a.crossing[l]--
			}
		}
		if len(next) == len(unfrozen) {
			// Cannot happen: the arg-min link or arg-min demand always
			// freezes at least one unit. Guard against float pathology.
			for _, i := range next {
				units[i].rate = level
			}
			break
		}
		unfrozen = next
	}
	for _, l := range touched {
		a.crossing[l] = 0
	}
	a.unfrozen, a.touched = unfrozen[:0], touched[:0]
}
