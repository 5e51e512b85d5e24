package ml

import (
	"math/rand"
)

// baggedTrees is the shared machinery of bootstrap ensembles: fit B trees
// on bootstrap resamples, predict by averaging.
type baggedTrees struct {
	trees     []*DecisionTreeRegressor
	nFeatures int
}

func (e *baggedTrees) fit(X [][]float64, y []float64, b int, makeTree func(seed int64) *DecisionTreeRegressor, seed int64) error {
	p, err := checkFit(X, y)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	e.trees = make([]*DecisionTreeRegressor, 0, b)
	n := len(X)
	for t := 0; t < b; t++ {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			k := rng.Intn(n)
			bx[i] = X[k]
			by[i] = y[k]
		}
		tree := makeTree(rng.Int63())
		if err := tree.Fit(bx, by); err != nil {
			return err
		}
		e.trees = append(e.trees, tree)
	}
	e.nFeatures = p
	return nil
}

func (e *baggedTrees) predict(X [][]float64) ([]float64, error) {
	if len(e.trees) == 0 {
		return nil, ErrNotFitted
	}
	if err := checkPredict(X, e.nFeatures); err != nil {
		return nil, err
	}
	// Row by row, summing the trees in ensemble order: the same additions
	// as summing whole per-tree prediction vectors, without the vectors.
	out := make([]float64, len(X))
	inv := 1 / float64(len(e.trees))
	for i, row := range X {
		sum := 0.0
		for _, tree := range e.trees {
			sum += tree.predictRow(row)
		}
		out[i] = sum * inv
	}
	return out, nil
}

// RandomForestRegressor (R13:RFR) averages fully grown CART trees fitted
// on bootstrap resamples. scikit-learn regression defaults:
// n_estimators=100, max_features=1.0 (all features), unlimited depth. The
// paper selects this model for the deployed framework (lowest joint RMSE
// in Fig. 6 together with GBR).
type RandomForestRegressor struct {
	baggedTrees
	// NEstimators is the number of trees.
	NEstimators int
	// MaxFeatures subsamples features per split when in (0,1); 0 or 1
	// uses all features (the sklearn regression default).
	MaxFeatures float64
	// Seed drives bootstrap and feature sampling.
	Seed int64
}

// NewRandomForestRegressor creates a forest with library defaults.
func NewRandomForestRegressor() *RandomForestRegressor {
	return &RandomForestRegressor{NEstimators: 100, Seed: 42}
}

// Name implements Regressor.
func (r *RandomForestRegressor) Name() string { return "RFR" }

// Fit implements Regressor.
func (r *RandomForestRegressor) Fit(X [][]float64, y []float64) error {
	if r.NEstimators < 1 {
		r.NEstimators = 100
	}
	return r.fit(X, y, r.NEstimators, func(seed int64) *DecisionTreeRegressor {
		t := NewDecisionTreeRegressor()
		t.MaxFeatures = r.MaxFeatures
		t.Seed = seed
		return t
	}, r.Seed)
}

// Predict implements Regressor.
func (r *RandomForestRegressor) Predict(X [][]float64) ([]float64, error) { return r.predict(X) }

// NTrees returns the number of fitted trees.
func (r *RandomForestRegressor) NTrees() int { return len(r.trees) }

// BaggingRegressor (R3:Bagging) is bootstrap aggregation over the default
// base estimator (a full CART tree), scikit-learn default n_estimators=10.
type BaggingRegressor struct {
	baggedTrees
	// NEstimators is the number of base estimators.
	NEstimators int
	// Seed drives the bootstrap.
	Seed int64
}

// NewBaggingRegressor creates a bagging ensemble with library defaults.
func NewBaggingRegressor() *BaggingRegressor {
	return &BaggingRegressor{NEstimators: 10, Seed: 42}
}

// Name implements Regressor.
func (r *BaggingRegressor) Name() string { return "Bagging" }

// Fit implements Regressor.
func (r *BaggingRegressor) Fit(X [][]float64, y []float64) error {
	if r.NEstimators < 1 {
		r.NEstimators = 10
	}
	return r.fit(X, y, r.NEstimators, func(seed int64) *DecisionTreeRegressor {
		t := NewDecisionTreeRegressor()
		t.Seed = seed
		return t
	}, r.Seed)
}

// Predict implements Regressor.
func (r *BaggingRegressor) Predict(X [][]float64) ([]float64, error) { return r.predict(X) }
