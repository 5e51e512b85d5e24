package ml

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refTreePredict is the tree walk written out where it is used, as
// DecisionTreeRegressor.Predict had it before predictRow.
func refTreePredict(r *DecisionTreeRegressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		n := r.root
		for !n.leaf {
			if row[n.feature] <= n.threshold {
				n = n.left
			} else {
				n = n.right
			}
		}
		out[i] = n.value
	}
	return out
}

// refBaggedPredict is the ensemble average as baggedTrees.predict computed
// it before the row walk: one prediction vector per tree, summed tree by
// tree into the output, scaled at the end.
func refBaggedPredict(e *baggedTrees, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for _, tree := range e.trees {
		for i, v := range refTreePredict(tree, X) {
			out[i] += v
		}
	}
	inv := 1 / float64(len(e.trees))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// TestBaggedPredictMatchesPerTreeVectors: the row walk must give the bits
// the per-tree vectors gave, on both bootstrap ensembles, on training rows
// and on rows the trees never saw.
func TestBaggedPredictMatchesPerTreeVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, p = 150, 6
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		y[i] = 3*X[i][0] - 2*X[i][1]*X[i][2] + math.Sin(X[i][3]) + 0.1*rng.NormFloat64()
	}
	fresh := make([][]float64, 200)
	for i := range fresh {
		fresh[i] = make([]float64, p)
		for j := range fresh[i] {
			fresh[i][j] = 3 * rng.NormFloat64()
		}
	}
	rfr, sub, bag := NewRandomForestRegressor(), NewRandomForestRegressor(), NewBaggingRegressor()
	sub.MaxFeatures = 0.5
	for _, c := range []struct {
		r     Regressor
		trees *baggedTrees
	}{{rfr, &rfr.baggedTrees}, {sub, &sub.baggedTrees}, {bag, &bag.baggedTrees}} {
		if err := c.r.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, rows := range [][][]float64{X, fresh} {
			got, err := c.r.Predict(rows)
			if err != nil {
				t.Fatal(err)
			}
			want := refBaggedPredict(c.trees, rows)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s row %d: %v (%#x), per-tree vectors give %v (%#x)", c.r.Name(), i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			// A single tree goes through the same walk.
			one, err := c.trees.trees[0].Predict(rows)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range refTreePredict(c.trees.trees[0], rows) {
				if math.Float64bits(one[i]) != math.Float64bits(w) {
					t.Fatalf("%s tree 0 row %d: %v, want %v", c.r.Name(), i, one[i], w)
				}
			}
		}
	}
}

// forecastSeries is a fixed, wiggly 120-sample history.
func forecastSeries() []float64 {
	out := make([]float64, 120)
	state := uint64(12345)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		noise := float64(state>>40)/float64(1<<24) - 0.5
		out[i] = 10 + 4*math.Sin(float64(i)/7) + 2*math.Sin(float64(i)/2.3) + noise
	}
	return out
}

// TestRecursiveForecastGolden pins Hecate's forecast path — lag windows, a
// bootstrap ensemble fitted with its default seed, ten recursive steps —
// to the bits it produced before the ensembles' predict was rewritten.
// The values are amd64's: other architectures may fuse the multiply-adds
// in the tree fit.
func TestRecursiveForecastGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden forecasts were recorded on amd64")
	}
	series := forecastSeries()
	X, y, err := MakeWindows(series, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r    Regressor
		want [10]uint64
	}{
		{NewRandomForestRegressor(), [10]uint64{
			0x401e4358f52767e4, 0x401ccbdbec5e5969, 0x4019d5fcffddef5e, 0x40175df0fa07cfea, 0x4016c5013373f7a4,
			0x401651990b634faa, 0x40182303a4736865, 0x401a657f02735267, 0x401dba9291eadaff, 0x4020507c6fc82a76}},
		{NewBaggingRegressor(), [10]uint64{
			0x401e3e63b1288b2f, 0x401cbbfb9755b8fa, 0x4019c133a512fb02, 0x401778be85123058, 0x40172d54866422ad,
			0x40169abbedefe5ab, 0x40171371204aecb4, 0x401a5436b0d1295c, 0x401d1e4819e149bc, 0x401f859fef5bc234}},
	} {
		if err := c.r.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		got, err := RecursiveForecast(c.r, series, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range c.want {
			if math.Float64bits(got[i]) != w {
				t.Errorf("%s step %d: %v (%#x), golden %v (%#x)", c.r.Name(), i,
					got[i], math.Float64bits(got[i]), math.Float64frombits(w), w)
			}
		}
	}
}
