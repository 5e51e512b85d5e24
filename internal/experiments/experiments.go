// Package experiments contains the runnable reproductions of every figure
// in the paper's evaluation (Section V):
//
//	Fig. 5b — the two-path wireless bandwidth trace (dataset package)
//	Fig. 6  — RMSE of the 18 regressors on both paths
//	Fig. 7  — observed vs predicted bandwidth, Random Forest
//	Fig. 8  — observed vs predicted bandwidth, Gaussian Process
//	Fig. 11 — agile migration to a lower-latency path (testbed exp. 1)
//	Fig. 12 — flow aggregation over multiple paths (testbed exp. 2)
//
// Each Run* function drives the same public machinery the framework binary
// uses (emulator + services over the bus), so a figure regeneration is an
// end-to-end exercise of the system, not a scripted shortcut.
//
// Every experiment — the figures above plus the extension scenarios
// (failover, workload, fct, packetlevel, multipath) — is registered
// behind the unified scenario API (internal/scenario) in scenarios.go;
// the registration is the authoritative entry point, with DefaultConfig
// as the single source of configuration truth and a context-aware Run.
// cmd/labctl, the suite runner (including -shard slices), and the CI
// benchmark trajectory (internal/benchstore) discover experiments only
// through that registry.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// MLConfig parametrizes the ML experiments.
type MLConfig struct {
	// Dataset configures the UQ-like trace (zero value = paper defaults).
	Dataset dataset.Config
	// Pipeline fixes split/lag (zero value = paper defaults: 75/25, lag 10).
	Pipeline ml.PipelineConfig
}

// DefaultMLConfig returns the paper's evaluation settings.
func DefaultMLConfig() MLConfig {
	return MLConfig{Dataset: dataset.DefaultConfig(), Pipeline: ml.DefaultPipelineConfig()}
}

// MLComparisonResult is the Fig. 6 artifact.
type MLComparisonResult struct {
	// Rows lists RMSE per model in R1…R18 order.
	Rows []ml.ComparisonRow
	// Ranked orders the rows by joint RMSE (distance from the scatter's
	// origin), best first.
	Ranked []ml.ComparisonRow
	// Trace is the dataset both paths were evaluated on.
	Trace *dataset.Trace
}

// RunMLComparisonContext regenerates Fig. 6: all eighteen regressors on
// both paths of the trace; ctx is checked between the model fits.
func RunMLComparisonContext(ctx context.Context, cfg MLConfig) (*MLComparisonResult, error) {
	tr := dataset.Generate(cfg.Dataset)
	rows, err := ml.CompareAllContext(ctx, tr.WiFi.Values(), tr.LTE.Values(), cfg.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 6 sweep: %w", err)
	}
	return &MLComparisonResult{Rows: rows, Ranked: ml.RankByJointRMSE(rows), Trace: tr}, nil
}

// ObservedVsPredicted is the Fig. 7/8 artifact for one model: the aligned
// test-split series for both paths.
type ObservedVsPredicted struct {
	Model string
	// WiFi and LTE carry observed/predicted pairs and scores per path.
	WiFi, LTE ml.EvalResult
	// WiFiImportance and LTEImportance are per-lag permutation
	// importances (RMSE increase when that lag is shuffled), oldest lag
	// first. Filled only on request (the mlpredict scenario's Importance
	// flag, formerly `mlcompare -importance`).
	WiFiImportance, LTEImportance []float64 `json:",omitempty"`
}

// lagImportance fits a fresh instance of the model on the series' lag
// windows and measures how much shuffling each lag column degrades RMSE.
func lagImportance(model string, series []float64, cfg ml.PipelineConfig) ([]float64, error) {
	spec, err := ml.ModelByName(model)
	if err != nil {
		return nil, err
	}
	X, y, err := ml.MakeWindows(series, cfg.Lag)
	if err != nil {
		return nil, err
	}
	r := spec.New()
	if err := r.Fit(X, y); err != nil {
		return nil, err
	}
	return ml.PermutationImportance(r, X, y, 5, 1)
}

// RunObservedVsPredictedContext regenerates Fig. 7 (model = "RFR") or
// Fig. 8 (model = "GPR"): the named model's test-split predictions on both
// paths; ctx is checked between the two per-path fits.
func RunObservedVsPredictedContext(ctx context.Context, model string, cfg MLConfig) (*ObservedVsPredicted, error) {
	spec, err := ml.ModelByName(model)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := dataset.Generate(cfg.Dataset)
	wifi, err := ml.EvaluateOnSeries(spec.New(), tr.WiFi.Values(), cfg.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on wifi: %w", model, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lte, err := ml.EvaluateOnSeries(spec.New(), tr.LTE.Values(), cfg.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on lte: %w", model, err)
	}
	return &ObservedVsPredicted{Model: spec.Name, WiFi: wifi, LTE: lte}, nil
}
