package hecate

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func trainedOptimizer(t *testing.T, model string) (*Optimizer, *dataset.Trace) {
	t.Helper()
	opt, err := New(Config{Lag: 10, Horizon: 10, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	tr := dataset.Generate(dataset.DefaultConfig())
	if err := opt.TrainPath("wifi", tr.WiFi.Values()[:375]); err != nil {
		t.Fatal(err)
	}
	if err := opt.TrainPath("lte", tr.LTE.Values()[:375]); err != nil {
		t.Fatal(err)
	}
	return opt, tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Model: "NopeModel"}); err == nil {
		t.Error("unknown model should fail")
	}
	opt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.Config()
	if cfg.Lag != 10 || cfg.Horizon != 10 || cfg.Model != "RFR" {
		t.Errorf("defaults = %+v", cfg)
	}
	if opt.ModelName() != "RFR" {
		t.Errorf("ModelName = %q", opt.ModelName())
	}
}

func TestTrainPathValidation(t *testing.T) {
	opt, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.TrainPath("", []float64{1}); err == nil {
		t.Error("empty path name should fail")
	}
	if err := opt.TrainPath("p", make([]float64, 5)); err == nil {
		t.Error("short history should fail")
	}
}

func TestForecastShape(t *testing.T) {
	opt, tr := trainedOptimizer(t, "LR")
	recent := tr.WiFi.Values()[365:375]
	fc, err := opt.Forecast("wifi", recent)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 10 {
		t.Fatalf("forecast length = %d", len(fc))
	}
	for i, v := range fc {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("forecast[%d] = %v", i, v)
		}
	}
	if _, err := opt.Forecast("wifi", recent[:5]); err == nil {
		t.Error("short recent history should fail")
	}
	if _, err := opt.Forecast("unknown", recent); err == nil {
		t.Error("untrained path should fail")
	}
}

func TestForecastTracksLevel(t *testing.T) {
	// A near-constant series must forecast near that constant.
	opt, err := New(Config{Lag: 5, Horizon: 5, Model: "LR"})
	if err != nil {
		t.Fatal(err)
	}
	series := make([]float64, 100)
	for i := range series {
		series[i] = 50 + 0.01*float64(i%3)
	}
	if err := opt.TrainPath("flat", series); err != nil {
		t.Fatal(err)
	}
	fc, err := opt.Forecast("flat", series[95:])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if math.Abs(v-50) > 1 {
			t.Errorf("flat forecast = %v, want ≈50", v)
		}
	}
}

func TestRecommendPicksHigherBandwidthPath(t *testing.T) {
	opt, err := New(Config{Lag: 5, Horizon: 5, Model: "LR"})
	if err != nil {
		t.Fatal(err)
	}
	high := make([]float64, 80)
	low := make([]float64, 80)
	for i := range high {
		high[i] = 90 + float64(i%2)
		low[i] = 10 + float64(i%2)
	}
	if err := opt.TrainPath("high", high); err != nil {
		t.Fatal(err)
	}
	if err := opt.TrainPath("low", low); err != nil {
		t.Fatal(err)
	}
	rec, err := opt.Recommend(map[string][]float64{
		"high": high[70:],
		"low":  low[70:],
	}, MaxBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Path != "high" {
		t.Errorf("recommended %q, want high", rec.Path)
	}
	if rec.Score < 80 {
		t.Errorf("score = %v", rec.Score)
	}
	if len(rec.Forecasts) != 2 {
		t.Errorf("forecasts for %d paths", len(rec.Forecasts))
	}
	// Under MinLatency the same numbers should flip the winner.
	rec, err = opt.Recommend(map[string][]float64{
		"high": high[70:],
		"low":  low[70:],
	}, MinLatency)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Path != "low" {
		t.Errorf("min-latency recommended %q, want low", rec.Path)
	}
}

func TestRecommendErrors(t *testing.T) {
	opt, _ := trainedOptimizer(t, "LR")
	if _, err := opt.Recommend(nil, MaxBandwidth); err == nil {
		t.Error("empty candidates should fail")
	}
	if _, err := opt.Recommend(map[string][]float64{"unknown": make([]float64, 10)}, MaxBandwidth); err == nil {
		t.Error("untrained candidate should fail")
	}
}

func TestRecommendOnUQTrace(t *testing.T) {
	// On the UQ trace the indoor regime favors WiFi; late outdoor samples
	// favor LTE. The recommendation must flip accordingly.
	opt, tr := trainedOptimizer(t, "RFR")
	wifi, lte := tr.WiFi.Values(), tr.LTE.Values()
	early, err := opt.Recommend(map[string][]float64{
		"wifi": wifi[30:60],
		"lte":  lte[30:60],
	}, MaxBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	if early.Path != "wifi" {
		t.Errorf("indoor recommendation = %q, want wifi", early.Path)
	}
	late, err := opt.Recommend(map[string][]float64{
		"wifi": wifi[340:375],
		"lte":  lte[340:375],
	}, MaxBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	if late.Path != "lte" {
		t.Errorf("outdoor recommendation = %q, want lte (wifi degraded)", late.Path)
	}
}

// TestRecommendAcrossModelsAndHorizons trains each (model, horizon) pair
// on the UQ trace's first 75 % and recommends from the next ten samples:
// every pair must forecast the whole horizon for both paths and pick one.
func TestRecommendAcrossModelsAndHorizons(t *testing.T) {
	tr := dataset.Generate(dataset.DefaultConfig())
	wifi, lte := tr.WiFi.Values(), tr.LTE.Values()
	split := dataset.SplitIndex(tr.Len(), 0.75)
	for _, c := range []struct {
		model   string
		horizon int
	}{{"RFR", 1}, {"RFR", 10}, {"GBR", 10}, {"LR", 10}} {
		opt, err := New(Config{Lag: 10, Horizon: c.horizon, Model: c.model})
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.TrainPath("wifi", wifi[:split]); err != nil {
			t.Fatal(err)
		}
		if err := opt.TrainPath("lte", lte[:split]); err != nil {
			t.Fatal(err)
		}
		rec, err := opt.Recommend(map[string][]float64{
			"wifi": wifi[split : split+10],
			"lte":  lte[split : split+10],
		}, MaxBandwidth)
		if err != nil {
			t.Fatalf("%s h%d: %v", c.model, c.horizon, err)
		}
		if rec.Path != "wifi" && rec.Path != "lte" {
			t.Errorf("%s h%d: recommended %q", c.model, c.horizon, rec.Path)
		}
		for path, fc := range rec.Forecasts {
			if len(fc) != c.horizon {
				t.Errorf("%s h%d: %s forecast has %d steps", c.model, c.horizon, path, len(fc))
			}
		}
	}
}

func TestTrainedPaths(t *testing.T) {
	opt, _ := trainedOptimizer(t, "LR")
	got := opt.TrainedPaths()
	if len(got) != 2 || got[0] != "lte" || got[1] != "wifi" {
		t.Errorf("TrainedPaths = %v", got)
	}
}

func TestReactiveBest(t *testing.T) {
	best, v, err := ReactiveBest(map[string]float64{"a": 5, "b": 9, "c": 7}, MaxBandwidth)
	if err != nil || best != "b" || v != 9 {
		t.Errorf("ReactiveBest = %q, %v, %v", best, v, err)
	}
	best, v, err = ReactiveBest(map[string]float64{"a": 5, "b": 9}, MinLatency)
	if err != nil || best != "a" || v != 5 {
		t.Errorf("ReactiveBest min = %q, %v, %v", best, v, err)
	}
	if _, _, err := ReactiveBest(nil, MaxBandwidth); err == nil {
		t.Error("empty should fail")
	}
}

func TestObjectiveString(t *testing.T) {
	if MaxBandwidth.String() != "max-bandwidth" || MinLatency.String() != "min-latency" ||
		MinMaxUtilization.String() != "min-max-utilization" {
		t.Error("objective names wrong")
	}
	if !strings.Contains(Objective(9).String(), "9") {
		t.Error("unknown objective should include the number")
	}
}

func TestPersistenceFallbackForConstantHistory(t *testing.T) {
	// A zero-variance training series must yield a persistence model that
	// tracks live telemetry instead of echoing the training constant —
	// the degenerate case that breaks regression on idle-network data.
	opt, err := New(Config{Lag: 5, Horizon: 4, Model: "RFR"})
	if err != nil {
		t.Fatal(err)
	}
	constant := make([]float64, 40)
	for i := range constant {
		constant[i] = 20
	}
	if err := opt.TrainPath("idle", constant); err != nil {
		t.Fatal(err)
	}
	// Live telemetry now shows the path saturated at 0.
	fc, err := opt.Forecast("idle", []float64{0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 4 {
		t.Fatalf("forecast length %d", len(fc))
	}
	for _, v := range fc {
		if v != 0 {
			t.Errorf("persistence forecast = %v, want 0 (last observed), not the training constant", v)
		}
	}
	// Mixed persistence + trained models inside one recommendation.
	varied := make([]float64, 40)
	for i := range varied {
		varied[i] = 10 + 3*float64(i%4)
	}
	if err := opt.TrainPath("busy", varied); err != nil {
		t.Fatal(err)
	}
	rec, err := opt.Recommend(map[string][]float64{
		"idle": {0, 0, 0, 0, 0},
		"busy": varied[35:],
	}, MaxBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Path != "busy" {
		t.Errorf("recommended %q, want busy (idle path reports 0)", rec.Path)
	}
}
