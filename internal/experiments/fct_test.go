package experiments

import (
	"context"
	"testing"
)

func TestFCTBalancedBeatsStatic(t *testing.T) {
	static, err := RunFCTContext(context.Background(), DefaultFCTConfig(PolicyStatic))
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := RunFCTContext(context.Background(), DefaultFCTConfig(PolicyReactive))
	if err != nil {
		t.Fatal(err)
	}
	random, err := RunFCTContext(context.Background(), DefaultFCTConfig(PolicyRandom))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mean FCT: static=%.1fs random=%.1fs reactive=%.1fs (p95 %.1f/%.1f/%.1f)",
		static.MeanFCTSec, random.MeanFCTSec, balanced.MeanFCTSec,
		static.P95FCTSec, random.P95FCTSec, balanced.P95FCTSec)
	// Everyone eventually finishes the same transfers.
	if static.Completed != 24 || balanced.Completed != 24 || random.Completed != 24 {
		t.Fatalf("completions = %d/%d/%d, want 24 each",
			static.Completed, balanced.Completed, random.Completed)
	}
	// The TE policy must finish transfers clearly faster than piling them
	// on one tunnel.
	if balanced.MeanFCTSec >= 0.8*static.MeanFCTSec {
		t.Errorf("reactive mean FCT %v not clearly below static %v",
			balanced.MeanFCTSec, static.MeanFCTSec)
	}
	if balanced.P95FCTSec > static.P95FCTSec {
		t.Errorf("reactive p95 %v worse than static %v", balanced.P95FCTSec, static.P95FCTSec)
	}
	if balanced.MakespanSec > static.MakespanSec {
		t.Errorf("reactive makespan %v worse than static %v", balanced.MakespanSec, static.MakespanSec)
	}
}

func TestFCTValidation(t *testing.T) {
	cfg := DefaultFCTConfig(PolicyReactive)
	cfg.Transfers = 0
	if _, err := RunFCTContext(context.Background(), cfg); err == nil {
		t.Error("zero transfers should fail")
	}
	cfg = DefaultFCTConfig(WorkloadPolicy("bogus"))
	cfg.Transfers = 2
	if _, err := RunFCTContext(context.Background(), cfg); err == nil {
		t.Error("unknown policy should fail")
	}
}
