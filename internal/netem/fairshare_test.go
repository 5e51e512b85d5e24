package netem

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// allocKey and allocFlow describe an allocation problem by link name, the
// way the cases below are written; maxMinFair numbers the links and runs
// the emulator's index-based allocator on it.
type allocKey struct {
	flow FlowID
	sub  int
}

type allocFlow struct {
	id     allocKey
	demand float64
	links  []string
}

func maxMinFair(flows []allocFlow, capacity map[string]float64) map[allocKey]float64 {
	index := make(map[string]int32, len(capacity))
	var caps []float64
	for name, c := range capacity {
		index[name] = int32(len(caps))
		caps = append(caps, c)
	}
	units := make([]allocUnit, len(flows))
	for i, f := range flows {
		units[i] = allocUnit{demand: f.demand}
		for _, l := range f.links {
			units[i].links = append(units[i].links, index[l])
		}
	}
	a := newFiller(len(caps))
	// Twice, so a run that left scratch dirty would show.
	a.run(units, caps)
	a.run(units, caps)
	rates := make(map[allocKey]float64, len(flows))
	for i, f := range flows {
		rates[f.id] = units[i].rate
	}
	return rates
}

func TestMaxMinFairSingleBottleneck(t *testing.T) {
	// Two greedy flows share one 10 Mbps link: 5 each.
	flows := []allocFlow{
		{id: allocKey{flow: 1}, demand: math.Inf(1), links: []string{"a->b"}},
		{id: allocKey{flow: 2}, demand: math.Inf(1), links: []string{"a->b"}},
	}
	r := maxMinFair(flows, map[string]float64{"a->b": 10})
	if !almost(r[allocKey{flow: 1}], 5) || !almost(r[allocKey{flow: 2}], 5) {
		t.Errorf("rates = %v, want 5/5", r)
	}
}

func TestMaxMinFairDemandLimited(t *testing.T) {
	// Flow 1 wants only 2; flow 2 takes the rest.
	flows := []allocFlow{
		{id: allocKey{flow: 1}, demand: 2, links: []string{"a->b"}},
		{id: allocKey{flow: 2}, demand: math.Inf(1), links: []string{"a->b"}},
	}
	r := maxMinFair(flows, map[string]float64{"a->b": 10})
	if !almost(r[allocKey{flow: 1}], 2) || !almost(r[allocKey{flow: 2}], 8) {
		t.Errorf("rates = %v, want 2/8", r)
	}
}

func TestMaxMinFairClassicExample(t *testing.T) {
	// The textbook 3-flow example: links X (cap 10) and Y (cap 8).
	// f1 uses X, f2 uses X and Y, f3 uses Y.
	// First level: min share = min(10/2, 8/2) = 4 → f2, f3 frozen at 4 on Y.
	// Then f1 gets remaining X: 10-4 = 6.
	flows := []allocFlow{
		{id: allocKey{flow: 1}, demand: math.Inf(1), links: []string{"X"}},
		{id: allocKey{flow: 2}, demand: math.Inf(1), links: []string{"X", "Y"}},
		{id: allocKey{flow: 3}, demand: math.Inf(1), links: []string{"Y"}},
	}
	r := maxMinFair(flows, map[string]float64{"X": 10, "Y": 8})
	if !almost(r[allocKey{flow: 2}], 4) || !almost(r[allocKey{flow: 3}], 4) || !almost(r[allocKey{flow: 1}], 6) {
		t.Errorf("rates = %v, want f1=6 f2=4 f3=4", r)
	}
}

func TestMaxMinFairZeroDemand(t *testing.T) {
	flows := []allocFlow{
		{id: allocKey{flow: 1}, demand: 0, links: []string{"a"}},
		{id: allocKey{flow: 2}, demand: math.Inf(1), links: []string{"a"}},
	}
	r := maxMinFair(flows, map[string]float64{"a": 7})
	if !almost(r[allocKey{flow: 1}], 0) || !almost(r[allocKey{flow: 2}], 7) {
		t.Errorf("rates = %v, want 0/7", r)
	}
}

func TestMaxMinFairExperiment2Shape(t *testing.T) {
	// The paper's experiment 2 after reallocation: one flow per tunnel,
	// bottlenecks 20, 10, 5 → total 35 achievable by path capacities; the
	// paper reports ≈30 Mbps goodput. At the allocation level the three
	// flows must be independent: each gets its own bottleneck.
	flows := []allocFlow{
		{id: allocKey{flow: 1}, demand: math.Inf(1), links: []string{"MIA->SAO", "SAO->AMS"}},
		{id: allocKey{flow: 2}, demand: math.Inf(1), links: []string{"MIA->CHI", "CHI->AMS"}},
		{id: allocKey{flow: 3}, demand: math.Inf(1), links: []string{"MIA->CAL", "CAL->CHI", "CHI->AMS"}},
	}
	caps := map[string]float64{
		"MIA->SAO": 20, "SAO->AMS": 20,
		"MIA->CHI": 10, "CHI->AMS": 20,
		"MIA->CAL": 5, "CAL->CHI": 5,
	}
	r := maxMinFair(flows, caps)
	if !almost(r[allocKey{flow: 1}], 20) || !almost(r[allocKey{flow: 2}], 10) || !almost(r[allocKey{flow: 3}], 5) {
		t.Errorf("rates = %v, want 20/10/5", r)
	}

	// Before reallocation all three squeeze into tunnel 1: 20/3 each.
	same := []allocFlow{
		{id: allocKey{flow: 1}, demand: math.Inf(1), links: []string{"MIA->SAO", "SAO->AMS"}},
		{id: allocKey{flow: 2}, demand: math.Inf(1), links: []string{"MIA->SAO", "SAO->AMS"}},
		{id: allocKey{flow: 3}, demand: math.Inf(1), links: []string{"MIA->SAO", "SAO->AMS"}},
	}
	r = maxMinFair(same, caps)
	want := 20.0 / 3
	if !almost(r[allocKey{flow: 1}], want) || !almost(r[allocKey{flow: 2}], want) || !almost(r[allocKey{flow: 3}], want) {
		t.Errorf("shared-tunnel rates = %v, want %v each", r, want)
	}
}

// TestMaxMinFairInvariants property-checks the allocation: capacities are
// respected and the allocation is max-min fair (no flow can grow without a
// ≤-rate flow shrinking — equivalently, every flow is either
// demand-limited or crosses a saturated link where it has a maximal rate).
func TestMaxMinFairInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	linkNames := []string{"l0", "l1", "l2", "l3", "l4", "l5"}
	for trial := 0; trial < 200; trial++ {
		caps := make(map[string]float64)
		for _, l := range linkNames {
			caps[l] = 1 + rng.Float64()*99
		}
		n := 1 + rng.Intn(8)
		flows := make([]allocFlow, n)
		for i := range flows {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(len(linkNames))[:k]
			links := make([]string, k)
			for j, idx := range perm {
				links[j] = linkNames[idx]
			}
			demand := math.Inf(1)
			if rng.Intn(2) == 0 {
				demand = rng.Float64() * 50
			}
			flows[i] = allocFlow{id: allocKey{flow: FlowID(i + 1)}, demand: demand, links: links}
		}
		rates := maxMinFair(flows, caps)

		// Invariant 1: link loads within capacity.
		load := make(map[string]float64)
		for _, f := range flows {
			for _, l := range f.links {
				load[l] += rates[f.id]
			}
		}
		for l, v := range load {
			if v > caps[l]+1e-6 {
				t.Fatalf("trial %d: link %s overloaded: %v > %v", trial, l, v, caps[l])
			}
		}
		// Invariant 2: no rate exceeds demand.
		for _, f := range flows {
			if rates[f.id] > f.demand+1e-6 {
				t.Fatalf("trial %d: flow %d rate %v exceeds demand %v", trial, f.id, rates[f.id], f.demand)
			}
		}
		// Invariant 3 (max-min): every flow is demand-limited or crosses a
		// saturated link on which it has the maximal rate.
		for _, f := range flows {
			if rates[f.id] >= f.demand-1e-6 {
				continue
			}
			bounded := false
			for _, l := range f.links {
				if load[l] < caps[l]-1e-6 {
					continue
				}
				maxOn := 0.0
				for _, g := range flows {
					for _, gl := range g.links {
						if gl == l && rates[g.id] > maxOn {
							maxOn = rates[g.id]
						}
					}
				}
				if rates[f.id] >= maxOn-1e-6 {
					bounded = true
					break
				}
			}
			if !bounded {
				t.Fatalf("trial %d: flow %d (rate %v) neither demand-limited nor maximal on a saturated link",
					trial, f.id, rates[f.id])
			}
		}
	}
}
