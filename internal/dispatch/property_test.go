package dispatch

import (
	"testing"
	"time"

	"repro/internal/dispatch/dispatchtest"
	"repro/internal/labd"
)

// TestDispatchCoverageProperty is the partition invariant under fleet
// degradation: for every fleet size n in 1..5 and every combination of
// backend deaths that leaves at least one survivor, the dispatcher's
// merged suite result covers exactly the full registry — the union of
// executed work is the whole suite, and no scenario runs twice.
//
// Three death flavors exercise the two distinct unhappy paths:
//
//	killed   the backend is gone before planning → probe exclusion
//	busy     healthz green but submissions 503 queue_full → mid-run
//	         requeue onto survivors
//	drain    healthz advertises draining → planning exclusion via the
//	         health body rather than a transport failure
func TestDispatchCoverageProperty(t *testing.T) {
	flavors := []struct {
		name  string
		apply func(b *dispatchtest.Backend)
	}{
		{"killed", func(b *dispatchtest.Backend) { b.Kill() }},
		{"busy", func(b *dispatchtest.Backend) { b.SetFault(dispatchtest.FaultQueueFull) }},
		{"drain", func(b *dispatchtest.Backend) { b.SetFault(dispatchtest.FaultDraining) }},
	}
	for _, flavor := range flavors {
		flavor := flavor
		t.Run(flavor.name+"/steal", func(t *testing.T) {
			t.Parallel()
			for n := 1; n <= 5; n++ {
				// Every subset of dead backends with ≥ 1 survivor.
				for mask := 0; mask < 1<<n-1; mask++ {
					cluster := dispatchtest.New(n, labd.Config{Workers: 2})
					for i := 0; i < n; i++ {
						if mask&(1<<i) != 0 {
							flavor.apply(cluster.Backends[i])
						}
					}
					res, err := Run(ctxT(t), cluster.Addrs(), Options{
						Spec:       labd.JobSpec{Scenarios: fixtureNames, Quick: true},
						RetryDelay: 50 * time.Millisecond,
					})
					if err != nil {
						cluster.Close()
						t.Fatalf("n=%d mask=%b: %v", n, mask, err)
					}
					checkExactCoverage(t, res, n, mask)
					cluster.Close()
				}
			}
		})
	}
}

// checkExactCoverage asserts the merged result and the executed units
// both cover the full registry exactly once, in registry order.
func checkExactCoverage(t *testing.T, res *Result, n, mask int) {
	t.Helper()
	if len(res.Suite.Outcomes) != len(fixtureNames) {
		t.Fatalf("n=%d mask=%b: merged %d outcomes, want %d", n, mask, len(res.Suite.Outcomes), len(fixtureNames))
	}
	for j, o := range res.Suite.Outcomes {
		if o.Scenario != fixtureNames[j] {
			t.Fatalf("n=%d mask=%b: outcome %d is %q, want %q", n, mask, j, o.Scenario, fixtureNames[j])
		}
		if o.Error != "" || o.Skipped || o.Report == nil {
			t.Fatalf("n=%d mask=%b: outcome %s not green: %+v", n, mask, o.Scenario, o)
		}
	}
	// Independently of the merge: the union of what the accepted unit
	// runs actually executed is exactly the registry, no scenario twice.
	executed := map[string]int{}
	for _, u := range res.Units {
		if u.Skipped {
			continue
		}
		for _, o := range u.Result.Outcomes {
			executed[o.Scenario]++
		}
	}
	for _, name := range fixtureNames {
		if executed[name] != 1 {
			t.Fatalf("n=%d mask=%b: scenario %s executed %d times across accepted runs", n, mask, name, executed[name])
		}
	}
	if len(executed) != len(fixtureNames) {
		t.Fatalf("n=%d mask=%b: executed %d distinct scenarios, want %d", n, mask, len(executed), len(fixtureNames))
	}
}
