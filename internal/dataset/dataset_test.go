package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if a.Len() != 500 || b.Len() != 500 {
		t.Fatalf("lengths = %d, %d; want 500", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.WiFi.At(i).Value != b.WiFi.At(i).Value || a.LTE.At(i).Value != b.LTE.At(i).Value {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := Generate(Config{Seed: 2, DurationSec: 500, TransitionSec: 100, TransitionWidthSec: 25})
	same := true
	for i := 0; i < 20; i++ {
		if a.WiFi.At(i).Value != c.WiFi.At(i).Value {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical prefixes")
	}
}

func TestFig5bStructure(t *testing.T) {
	tr := Generate(DefaultConfig())
	// Indoor window (0..80): WiFi strong, LTE weak.
	wifiIn, _ := tr.WiFi.MeanWindow(0, 80)
	lteIn, _ := tr.LTE.MeanWindow(0, 80)
	if wifiIn < 50 {
		t.Errorf("indoor WiFi mean = %v, want > 50", wifiIn)
	}
	if lteIn > 10 {
		t.Errorf("indoor LTE mean = %v, want < 10", lteIn)
	}
	if wifiIn < 4*lteIn {
		t.Errorf("indoor WiFi (%v) should dominate LTE (%v)", wifiIn, lteIn)
	}
	// Outdoor window (200..500): WiFi degraded, LTE improved — crossover in
	// favor of neither being always best is what makes path choice dynamic.
	wifiOut, _ := tr.WiFi.MeanWindow(200, 500)
	lteOut, _ := tr.LTE.MeanWindow(200, 500)
	if wifiOut > wifiIn/2 {
		t.Errorf("outdoor WiFi mean = %v, want < half of indoor %v", wifiOut, wifiIn)
	}
	if lteOut < 2*lteIn {
		t.Errorf("outdoor LTE mean = %v, want > 2× indoor %v", lteOut, lteIn)
	}
	// Noise scale: WiFi fluctuates much more than LTE.
	if tr.WiFi.Std() < 2*tr.LTE.Std() {
		t.Errorf("WiFi std %v should be ≥ 2× LTE std %v", tr.WiFi.Std(), tr.LTE.Std())
	}
	// Bandwidth is physical: nonnegative everywhere.
	if tr.WiFi.Min() < 0 || tr.LTE.Min() < 0 {
		t.Error("negative bandwidth generated")
	}
}

// lag1 is the lag-1 autocorrelation of vals.
func lag1(vals []float64) float64 {
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	num, den := 0.0, 0.0
	for i := 0; i < len(vals); i++ {
		d := vals[i] - mean
		den += d * d
		if i > 0 {
			num += d * (vals[i-1] - mean)
		}
	}
	return num / den
}

// longestZeroRun is the length of the longest run of zero samples.
func longestZeroRun(vals []float64) int {
	longest, run := 0, 0
	for _, v := range vals {
		if v != 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return longest
}

func TestAutocorrelation(t *testing.T) {
	// Lag-1 autocorrelation must be clearly positive or lag-window
	// regression has nothing to learn.
	tr := Generate(DefaultConfig())
	for _, vals := range [][]float64{tr.WiFi.Values(), tr.LTE.Values()} {
		if ac := lag1(vals); ac < 0.5 {
			t.Errorf("lag-1 autocorrelation = %v, want ≥ 0.5", ac)
		}
	}
}

// TestTraceHealthyAcrossSeeds holds the Fig. 5b shape at seeds 1–64, not
// only at the default seed: a crash is a dropout of a few seconds, never a
// dead path (seeds 1–64 reach at most 5 zero seconds in a row), each
// path's indoor (0–80 s) and outdoor (250–500 s) means stay in a band
// around the regime means, and both series stay autocorrelated.
func TestTraceHealthyAcrossSeeds(t *testing.T) {
	const maxZeroRun = 8
	type band struct{ lo, hi float64 }
	for seed := int64(1); seed <= 64; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		tr := Generate(cfg)
		for _, p := range []struct {
			name            string
			vals            []float64
			indoor, outdoor band
		}{
			{PathWiFi, tr.WiFi.Values(), band{40, 70}, band{8, 18}},
			{PathLTE, tr.LTE.Values(), band{4, 8}, band{18, 26}},
		} {
			if run := longestZeroRun(p.vals); run > maxZeroRun {
				t.Errorf("seed %d %s: %d zero seconds in a row, want ≤ %d", seed, p.name, run, maxZeroRun)
			}
			for _, w := range []struct {
				from, to int
				want     band
			}{{0, 80, p.indoor}, {250, 500, p.outdoor}} {
				m := 0.0
				for _, v := range p.vals[w.from:w.to] {
					m += v
				}
				m /= float64(w.to - w.from)
				if m < w.want.lo || m > w.want.hi {
					t.Errorf("seed %d %s: mean over %d–%d s = %.2f, want in [%v, %v]",
						seed, p.name, w.from, w.to, m, w.want.lo, w.want.hi)
				}
			}
			if ac := lag1(p.vals); ac < 0.7 {
				t.Errorf("seed %d %s: lag-1 autocorrelation %.2f, want ≥ 0.7", seed, p.name, ac)
			}
		}
	}
}

func TestValues(t *testing.T) {
	tr := Generate(DefaultConfig())
	w, err := tr.Values(PathWiFi)
	if err != nil || len(w) != 500 {
		t.Errorf("Values(wifi): %d, %v", len(w), err)
	}
	l, err := tr.Values(PathLTE)
	if err != nil || len(l) != 500 {
		t.Errorf("Values(lte): %d, %v", len(l), err)
	}
	if _, err := tr.Values("5g"); err == nil {
		t.Error("unknown path should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Generate(Config{Seed: 9, DurationSec: 50, TransitionSec: 20, TransitionWidthSec: 5})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "time_s,wifi_mbps,lte_mbps\n") {
		t.Error("missing csv header")
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if math.Abs(got.WiFi.At(i).Value-tr.WiFi.At(i).Value) > 1e-5 {
			t.Fatalf("wifi value %d drifted: %v vs %v", i, got.WiFi.At(i).Value, tr.WiFi.At(i).Value)
		}
		if math.Abs(got.LTE.At(i).Value-tr.LTE.At(i).Value) > 1e-5 {
			t.Fatalf("lte value %d drifted", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV(strings.NewReader("time_s,wifi_mbps,lte_mbps\n")); err == nil {
		t.Error("header-only input should fail")
	}
	if _, err := ReadCSV(strings.NewReader("h1,h2,h3\n1,notanumber,2\n")); err == nil {
		t.Error("bad wifi value should fail")
	}
	if _, err := ReadCSV(strings.NewReader("h1,h2,h3\n1,2,notanumber\n")); err == nil {
		t.Error("bad lte value should fail")
	}
	if _, err := ReadCSV(strings.NewReader("h1,h2\n1,2\n")); err == nil {
		t.Error("wrong column count should fail")
	}
}

func TestSplitIndex(t *testing.T) {
	if got := SplitIndex(500, 0.75); got != 375 {
		t.Errorf("SplitIndex(500, .75) = %d, want 375", got)
	}
	if got := SplitIndex(100, 0); got != 75 {
		t.Errorf("invalid fraction should default to 0.75, got %d", got)
	}
	if got := SplitIndex(100, 1.5); got != 75 {
		t.Errorf("invalid fraction should default to 0.75, got %d", got)
	}
}

func TestGenerateDefaultsApplied(t *testing.T) {
	tr := Generate(Config{Seed: 3})
	if tr.Len() != 500 {
		t.Errorf("zero duration should default to 500, got %d", tr.Len())
	}
}
