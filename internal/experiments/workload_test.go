package experiments

import (
	"context"
	"testing"
)

// runPolicy is a helper running the soak under one policy.
func runPolicy(t *testing.T, p WorkloadPolicy) *WorkloadResult {
	t.Helper()
	cfg := DefaultWorkloadConfig(p)
	cfg.DurationSec = 300 // enough churn, keeps the suite quick
	res, err := RunWorkloadContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadSoakPolicies(t *testing.T) {
	static := runPolicy(t, PolicyStatic)
	random := runPolicy(t, PolicyRandom)
	reactive := runPolicy(t, PolicyReactive)
	predictive := runPolicy(t, PolicyPredictive)
	t.Logf("mean carried Mbps: static=%.1f random=%.1f reactive=%.1f predictive=%.1f",
		static.MeanTotalMbps, random.MeanTotalMbps, reactive.MeanTotalMbps, predictive.MeanTotalMbps)

	// The workload is identical across policies (same seed).
	if static.FlowsAdmitted != reactive.FlowsAdmitted || random.FlowsAdmitted != reactive.FlowsAdmitted {
		t.Errorf("admitted counts differ: %d/%d/%d",
			static.FlowsAdmitted, random.FlowsAdmitted, reactive.FlowsAdmitted)
	}
	if reactive.FlowsAdmitted < 20 {
		t.Errorf("only %d flows admitted in 300 s", reactive.FlowsAdmitted)
	}

	// Static (everything on tunnel 1) cannot carry more than tunnel 1.
	if static.PeakTotalMbps > 20.01 {
		t.Errorf("static peak %v exceeds tunnel-1 capacity", static.PeakTotalMbps)
	}
	// TE beats no-TE decisively: both balancing policies must carry
	// clearly more than the static pin, and at least match random.
	for _, r := range []*WorkloadResult{reactive, predictive} {
		if r.MeanTotalMbps < 1.2*static.MeanTotalMbps {
			t.Errorf("%s mean %v not clearly above static %v", r.Policy, r.MeanTotalMbps, static.MeanTotalMbps)
		}
		if r.MeanTotalMbps < random.MeanTotalMbps {
			t.Errorf("%s mean %v below random %v", r.Policy, r.MeanTotalMbps, random.MeanTotalMbps)
		}
	}
	// Sanity on the series.
	if reactive.Series.Len() < 290 {
		t.Errorf("series has %d samples", reactive.Series.Len())
	}
	if reactive.PeakTotalMbps > 35.01 {
		t.Errorf("peak %v exceeds total tunnel capacity", reactive.PeakTotalMbps)
	}
}

func TestWorkloadValidation(t *testing.T) {
	cfg := DefaultWorkloadConfig(PolicyReactive)
	cfg.MeanInterarrivalSec = 0
	if _, err := RunWorkloadContext(context.Background(), cfg); err == nil {
		t.Error("zero interarrival should fail")
	}
	cfg = DefaultWorkloadConfig(PolicyReactive)
	cfg.Demands = nil
	if _, err := RunWorkloadContext(context.Background(), cfg); err == nil {
		t.Error("no demands should fail")
	}
	cfg = DefaultWorkloadConfig(WorkloadPolicy("bogus"))
	cfg.DurationSec = 30
	if _, err := RunWorkloadContext(context.Background(), cfg); err == nil {
		t.Error("unknown policy should fail")
	}
}
